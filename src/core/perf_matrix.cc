#include "core/perf_matrix.h"

#include "util/logging.h"

namespace coserve {

void
PerfMatrix::set(ArchId arch, ProcKind proc, const PerfEntry &entry)
{
    COSERVE_CHECK(entry.k > 0, "perf entry needs positive K");
    COSERVE_CHECK(entry.maxBatch >= 1, "perf entry needs maxBatch >= 1");
    COSERVE_CHECK(inRange(arch, proc), "perf entry for unknown arch ",
                  static_cast<int>(arch), " on ", toString(proc));
    Slot &s = table_[static_cast<std::size_t>(arch)]
                    [static_cast<std::size_t>(proc)];
    if (!s.present)
        size_ += 1;
    s.entry = entry;
    s.present = true;
}

const PerfEntry &
PerfMatrix::at(ArchId arch, ProcKind proc) const
{
    COSERVE_CHECK(has(arch, proc), "no perf entry for arch ",
                  static_cast<int>(arch), " on ", toString(proc));
    return slot(arch, proc).entry;
}

} // namespace coserve
