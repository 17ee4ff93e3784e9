#include "aggregate.h"

#include <algorithm>
#include <cstring>

namespace coebench {

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Fingerprint &
Fingerprint::add(std::uint64_t v)
{
    std::uint64_t z = h_ ^ (v + 0x9e3779b97f4a7c15ull + (h_ << 6));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h_ = z ^ (z >> 31);
    return *this;
}

Fingerprint &
Fingerprint::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

bool
CheckLedger::record(std::size_t slot, std::int64_t arrivals,
                    bool conserved, std::uint64_t fingerprint)
{
    attempted_ += arrivals;
    const std::uint64_t reference =
        reference_.emplace(slot, fingerprint).first->second;
    bool ok = true;
    if (!conserved) {
        problems_.push_back("images + rejected + crash-lost != arrivals");
        ok = false;
    }
    if (fingerprint != reference) {
        problems_.push_back("simulated answer differs from the first "
                            "serve call on the same input");
        ok = false;
    }
    if (!ok)
        failed_ += arrivals;
    return ok;
}

void
CheckLedger::failAll(const std::string &why)
{
    problems_.push_back(why);
    failed_ = attempted_;
}

} // namespace coebench
