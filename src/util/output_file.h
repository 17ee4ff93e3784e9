/**
 * @file
 * Output files for the telemetry writers (span trace, metrics JSON,
 * sampler CSV): opened by the replace rule, closed with a status.
 */

#ifndef COSERVE_UTIL_OUTPUT_FILE_H
#define COSERVE_UTIL_OUTPUT_FILE_H

#include <cstdio>
#include <string>

namespace coserve {

/**
 * A stdio file opened for writing. If @p path names an existing
 * regular file with a single link (checked with lstat, which does not
 * follow symlinks), that file is unlinked and a fresh one created in
 * its place, so its permissions are not preserved. Anything else — a
 * symlink, a device such as /dev/null, a hard-linked file — is opened
 * in place and truncated, so writes go through to its target.
 *
 * Replacing rather than truncating is a host-cost choice: on ext4
 * (auto_da_alloc) truncating a file that holds blocks makes close()
 * start writeback of the new contents, and the next file written
 * stalls behind it.
 */
class OutputFile
{
  public:
    explicit OutputFile(const std::string &path);
    /** Closes the file if close() was not called; the status is lost. */
    ~OutputFile();

    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    /** @return the stream, or nullptr when opening failed or closed. */
    std::FILE *get() const { return f_; }

    /**
     * Flush and close. @return true when the file opened and no
     * write, flush or close on it failed. Later calls return false.
     */
    bool close();

  private:
    std::FILE *f_ = nullptr;
};

} // namespace coserve

#endif // COSERVE_UTIL_OUTPUT_FILE_H
