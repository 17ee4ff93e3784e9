#include "util/csv.h"

namespace coserve {

CsvWriter::CsvWriter(const std::string &path,
                     std::vector<std::string> header)
    : out_(path)
{
    writeRow(header);
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    writeRow(cells);
    ++rows_;
}

bool
CsvWriter::ok() const
{
    return out_.get() != nullptr && std::ferror(out_.get()) == 0;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    if (!out_.get())
        return;
    line_.clear();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            line_ += ',';
        const std::string &c = cells[i];
        if (c.find_first_of(",\"\n") != std::string::npos) {
            line_ += '"';
            for (char ch : c) {
                if (ch == '"')
                    line_ += '"';
                line_ += ch;
            }
            line_ += '"';
        } else {
            line_ += c;
        }
    }
    line_ += '\n';
    std::fwrite(line_.data(), 1, line_.size(), out_.get());
}

} // namespace coserve
