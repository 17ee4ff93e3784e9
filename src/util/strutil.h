/**
 * @file
 * String/number formatting helpers shared by reports and benches.
 */

#ifndef COSERVE_UTIL_STRUTIL_H
#define COSERVE_UTIL_STRUTIL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace coserve {

/** Render a byte count with binary units, e.g. "1.50 GiB". */
std::string formatBytes(std::int64_t bytes);

/** Render a double with fixed @p digits decimals. */
std::string formatDouble(double x, int digits = 2);

/** Render "x.yz%" from a fraction in [0, 1]. */
std::string formatPercent(double fraction, int digits = 1);

/** Longest putG17() output, e.g. "-2.2250738585072014e-308". */
inline constexpr std::size_t kMaxG17Chars = 24;

/**
 * Write @p x at @p out as printf's "%.17g" does, byte for byte (nan,
 * inf and -0 included), with std::to_chars: no locale and no
 * temporary string. @p out needs room for kMaxG17Chars bytes.
 * @return the end of what was written.
 */
char *putG17(char *out, double x);

} // namespace coserve

#endif // COSERVE_UTIL_STRUTIL_H
