#include "common.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

void
settle(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

void
removeAndSettle(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    const std::filesystem::path parent =
        std::filesystem::path(dir).parent_path();
    settle(parent.empty() ? "." : parent.string());
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    int n = 0;
    for (double x : xs) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / n) : 0.0;
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    if (++failed <= 20)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void
Counts::record(const std::string &name, uint64_t v, Outcome &out)
{
    auto [it, fresh] = v_.emplace(name, v);
    if (fresh)
        return;
    out.check(it->second == v,
              "exact count " + name + " moved: " +
                  std::to_string(it->second) + " then " + std::to_string(v));
}

} // namespace perfbench
