/**
 * @file
 * Metric aggregation and correctness accounting for the benchmark.
 *
 * A run makes many serve calls on one seed. Host timings are reduced
 * to their median over the calls; simulated answers must repeat
 * exactly, which CheckLedger enforces: every call's answer is reduced
 * to a fingerprint, the first call on each input (slot) sets that
 * slot's reference, and a call whose fingerprint differs from its
 * slot's reference, or whose arrivals are not conserved
 * (images + rejected + crash-lost != arrivals), counts all of its
 * arrivals as failed.
 */

#ifndef COEBENCH_AGGREGATE_H
#define COEBENCH_AGGREGATE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace coebench {

/** Median of @p xs (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> xs);

/** Order-sensitive 64-bit hash accumulator (splitmix64 finalizer). */
class Fingerprint
{
  public:
    Fingerprint &add(std::uint64_t v);
    Fingerprint &add(std::int64_t v)
    {
        return add(static_cast<std::uint64_t>(v));
    }
    /** Hashes the exact bit pattern of @p v. */
    Fingerprint &add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x9e3779b97f4a7c15ull;
};

/** Attempted / failed accounting over all serve calls of a run. */
class CheckLedger
{
  public:
    /**
     * Record one serve call on input @p slot of @p arrivals simulated
     * arrivals whose simulated answer hashes to @p fingerprint.
     * @return whether the call passed (conserved and equal to the
     * slot's reference fingerprint).
     */
    bool record(std::size_t slot, std::int64_t arrivals, bool conserved,
                std::uint64_t fingerprint);

    /** Mark every recorded arrival failed (a run-level check failed). */
    void failAll(const std::string &why);

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    /** Human-readable reasons, one per failed check. */
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    std::map<std::size_t, std::uint64_t> reference_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> problems_;
};

} // namespace coebench

#endif // COEBENCH_AGGREGATE_H
