/**
 * @file
 * ecoperf: run one workload and print its metrics, or run several
 * (each in a fresh child process) and print their medians.
 *
 *   ecoperf --workload NAME[,NAME...|all] [--seed N] [--seconds S]
 *           [--trace 0|1|FILE] [--repeat N] [--smoke] [--report FILE]
 *
 * One workload, one run: the run's metrics, one `name value unit`
 * line each, then a JSON line {"correct", "attempted", "failed",
 * "metrics"}. With --trace the metrics are the per-layer ones; a
 * FILE also receives the raw spans as CSV. Otherwise every workload
 * runs --repeat times with seeds N, N+1, ...; the summary gives each
 * metric's median and quartiles, and --report writes every run and
 * the summary as JSON. Exit status is 0 only when every check passed.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

namespace {

using namespace ecoperf;

const std::vector<std::string> kWorkloads = {"sim_tenants", "sim_policy",
                                             "rpc_durable", "daemon_tcp"};

struct Args
{
    RunOptions run;
    std::vector<std::string> workloads;
    int repeat = 1;
    std::string report;
};

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ecoperf: %s\nusage: ecoperf --workload NAME[,NAME...|all] "
                 "[--seed N] [--seconds S] [--trace 0|1|FILE] [--repeat N] "
                 "[--smoke] [--report FILE]\n",
                 why.c_str());
    return 64;
}

/** Parse argv; returns an exit code, or -1 to go on. */
int
parse(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], value;
        if (key == "--smoke") {
            a->run.smoke = true;
            continue;
        }
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage("missing value for " + key);
        }
        char *end = nullptr;
        if (key == "--workload") {
            std::size_t from = 0;
            while (from <= value.size()) {
                const std::size_t comma = value.find(',', from);
                const std::string name = value.substr(
                    from, comma == std::string::npos ? std::string::npos
                                                     : comma - from);
                if (name == "all")
                    a->workloads.insert(a->workloads.end(),
                                        kWorkloads.begin(),
                                        kWorkloads.end());
                else
                    a->workloads.push_back(name);
                if (comma == std::string::npos)
                    break;
                from = comma + 1;
            }
        } else if (key == "--seed") {
            a->run.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a->run.seconds = std::strtod(value.c_str(), &end);
            if (!(a->run.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (key == "--repeat") {
            a->repeat = std::atoi(value.c_str());
            if (a->repeat < 1)
                return usage("--repeat must be at least 1");
        } else if (key == "--trace") {
            a->run.trace = value != "0";
            if (value != "0" && value != "1")
                a->run.trace_file = value;
        } else if (key == "--report") {
            a->report = value;
        } else {
            return usage("unknown argument " + key);
        }
        if (end && *end != '\0')
            return usage("bad number for " + key + ": " + value);
    }
    if (a->workloads.empty())
        return usage("no --workload");
    for (const std::string &w : a->workloads) {
        bool known = false;
        for (const std::string &k : kWorkloads)
            known = known || k == w;
        if (!known)
            return usage("unknown workload " + w);
    }
    if (a->run.smoke)
        a->run.seconds = 0.3;
    return -1;
}

int
runOne(RunOptions opt)
{
    if (!opt.trace_file.empty())
        tracer().keepLog(std::size_t{1} << 20);
    RunResult r;
    if (opt.workload == "sim_tenants")
        r = runSimTenants(opt);
    else if (opt.workload == "sim_policy")
        r = runSimPolicy(opt);
    else if (opt.workload == "rpc_durable")
        r = runRpcDurable(opt);
    else
        r = runDaemonTcp(opt);
    return report(opt, r);
}

/** Python's statistics.quantiles(values, n=4), "exclusive" method. */
std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long long n = static_cast<long long>(v.size());
    if (n < 2)
        return {v[0], v[0], v[0]};
    std::vector<double> q;
    for (long long i = 1; i <= 3; ++i) {
        const long long m = n + 1;
        const long long j = std::clamp(i * m / 4, 1LL, n - 1);
        const long long delta = i * m - j * 4;
        q.push_back((v[j - 1] * static_cast<double>(4 - delta) +
                     v[j] * static_cast<double>(delta)) /
                    4.0);
    }
    return q;
}

/** Run one child ecoperf; its stdout lines, the JSON one last. */
bool
runChild(const std::vector<std::string> &args, std::vector<std::string> *lines)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return false;
    std::vector<char *> argv;
    std::vector<std::string> copy = args;
    for (std::string &a : copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv("/proc/self/exe", argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid)
        return false;
    std::size_t from = 0;
    while (from < out.size()) {
        std::size_t nl = out.find('\n', from);
        if (nl == std::string::npos)
            nl = out.size();
        lines->push_back(out.substr(from, nl - from));
        from = nl + 1;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int
runMany(const Args &a)
{
    struct Series
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, std::map<std::string, Series>> by_workload;
    ecov::JsonWriter report(2);
    report.beginObject();
    report.key("runs");
    report.beginArray();
    bool all_ok = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const std::string &wl : a.workloads) {
        for (int i = 0; i < a.repeat; ++i) {
            const std::uint64_t seed = a.run.seed + static_cast<unsigned>(i);
            std::vector<std::string> args = {
                "ecoperf", "--workload=" + wl,
                "--seed=" + std::to_string(seed),
                "--seconds=" + std::to_string(a.run.seconds)};
            if (a.run.trace)
                args.push_back(
                    "--trace=" +
                    (a.run.trace_file.empty()
                         ? std::string("1")
                         : a.run.trace_file + "." + wl + "." +
                               std::to_string(seed)));
            if (a.run.smoke)
                args.push_back("--smoke");
            std::vector<std::string> lines;
            const bool ok = runChild(args, &lines);
            for (std::size_t k = 0; k + 1 < lines.size(); ++k)
                std::printf("[%s seed=%llu] %s\n", wl.c_str(),
                            static_cast<unsigned long long>(seed),
                            lines[k].c_str());
            std::fflush(stdout);
            const auto doc = lines.empty()
                                 ? std::nullopt
                                 : ecov::JsonValue::parse(lines.back());
            if (!ok || !doc || !doc->find("metrics")) {
                std::printf("[%s seed=%llu] FAIL: run failed\n", wl.c_str(),
                            static_cast<unsigned long long>(seed));
                all_ok = false;
                continue;
            }
            attempted += static_cast<std::uint64_t>(
                doc->numberOr("attempted", 0));
            failed += static_cast<std::uint64_t>(doc->numberOr("failed", 0));
            report.beginObject();
            report.key("workload");
            report.value(wl);
            report.key("seed");
            report.value(seed);
            for (const std::string &line : lines)
                if (line.rfind("digest ", 0) == 0) {
                    report.key("digest");
                    report.value(line.substr(7, 16));
                }
            report.key("metrics");
            report.beginObject();
            for (const auto &[name, m] : doc->find("metrics")->asObject()) {
                Series &s = by_workload[wl][name];
                s.unit = m.stringOr("unit", "");
                s.values.push_back(m.numberOr("value", 0.0));
                report.key(name);
                report.value(s.values.back());
            }
            report.endObject();
            report.endObject();
        }
    }
    report.endArray();

    report.key("summary");
    report.beginObject();
    ecov::JsonWriter last(0);
    last.beginObject();
    last.key("correct");
    last.value(all_ok);
    last.key("attempted");
    last.value(attempted);
    last.key("failed");
    last.value(failed);
    last.key("metrics");
    last.beginObject();
    for (const auto &[wl, metrics] : by_workload) {
        report.key(wl);
        report.beginObject();
        for (const auto &[name, s] : metrics) {
            const std::vector<double> q = quartiles(s.values);
            std::printf("%s %s median %.6g q1 %.6g q3 %.6g iqr/median "
                        "%.2f%% %s n=%zu\n",
                        wl.c_str(), name.c_str(), q[1], q[0], q[2],
                        q[1] != 0.0 ? 100.0 * (q[2] - q[0]) / q[1] : 0.0,
                        s.unit.c_str(), s.values.size());
            report.key(name);
            report.beginObject();
            report.key("unit");
            report.value(s.unit);
            report.key("median");
            report.value(q[1]);
            report.key("q1");
            report.value(q[0]);
            report.key("q3");
            report.value(q[2]);
            report.endObject();
            last.key(wl + "." + name);
            last.beginObject();
            last.key("value");
            last.value(q[1]);
            last.key("unit");
            last.value(s.unit);
            last.endObject();
        }
        report.endObject();
    }
    report.endObject();
    report.endObject();
    last.endObject();
    last.endObject();
    if (!a.report.empty()) {
        std::ofstream out(a.report);
        out << report.str() << "\n";
        if (!out) {
            std::printf("FAIL: cannot write %s\n", a.report.c_str());
            all_ok = false;
        }
    }
    std::printf("%s\n", last.str().c_str());
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    const int rc = parse(argc, argv, &a);
    if (rc >= 0)
        return rc;
    try {
        if (a.workloads.size() == 1 && a.repeat == 1) {
            a.run.workload = a.workloads[0];
            return runOne(a.run);
        }
        return runMany(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ecoperf: %s\n", e.what());
        return 2;
    }
}
