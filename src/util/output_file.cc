#include "util/output_file.h"

#include <sys/stat.h>
#include <unistd.h>

namespace coserve {

OutputFile::OutputFile(const std::string &path)
{
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_nlink == 1)
        ::unlink(path.c_str());
    f_ = std::fopen(path.c_str(), "w");
}

OutputFile::~OutputFile()
{
    if (f_)
        std::fclose(f_);
}

bool
OutputFile::close()
{
    if (!f_)
        return false;
    // The error indicator is sticky: it records any earlier short
    // write; fclose() reports the final flush.
    const bool wrote = std::ferror(f_) == 0;
    const bool closed = std::fclose(f_) == 0;
    f_ = nullptr;
    return wrote && closed;
}

} // namespace coserve
