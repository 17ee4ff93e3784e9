/**
 * @file
 * Tiny CSV writer so bench binaries can optionally dump raw series for
 * external plotting.
 */

#ifndef COSERVE_UTIL_CSV_H
#define COSERVE_UTIL_CSV_H

#include <string>
#include <vector>

#include "util/output_file.h"

namespace coserve {

/** Streams rows to a CSV file; quotes cells containing separators. */
class CsvWriter
{
  public:
    /**
     * Open @p path for writing (see OutputFile for the replace rule)
     * and emit the header row. A failed open is reported by ok() and
     * close(); rows are then dropped.
     */
    CsvWriter(const std::string &path, std::vector<std::string> header);

    /** Append one data row (stringified by the caller). */
    void addRow(const std::vector<std::string> &cells);

    /** @return number of data rows written. */
    std::size_t rows() const { return rows_; }

    /** @return true while the file is open and no write has failed. */
    bool ok() const;

    /** Flush and close; @return true when every write landed. */
    bool close() { return out_.close(); }

  private:
    void writeRow(const std::vector<std::string> &cells);

    OutputFile out_;
    /** Row being rendered; reused so each row is one fwrite. */
    std::string line_;
    std::size_t rows_ = 0;
};

} // namespace coserve

#endif // COSERVE_UTIL_CSV_H
