/**
 * @file
 * Smoke check for one ecoperf workload at --smoke length:
 *
 *   perf_smoke BENCHMARK.json ECOPERF WORKLOAD TRACE(0|1)
 *
 * Passes when ecoperf exits 0, its last stdout line parses as JSON
 * with the four result keys, the run is correct, and its metrics are
 * exactly the ones BENCHMARK.json declares (end_to_end untraced,
 * per_layer traced), each with its declared unit.
 */

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "util/json.h"

namespace {

int
fail(const std::string &why)
{
    std::printf("perf_smoke: FAIL: %s\n", why.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 5)
        return fail("usage: perf_smoke BENCHMARK.json ECOPERF WORKLOAD "
                    "TRACE");
    const std::string workload = argv[3];
    const bool trace = std::string(argv[4]) == "1";

    std::ifstream in(argv[1]);
    std::stringstream text;
    text << in.rdbuf();
    const auto bench = ecov::JsonValue::parse(text.str());
    const ecov::JsonValue *declared =
        bench ? bench->find(trace ? "per_layer" : "end_to_end") : nullptr;
    if (!declared || !declared->isArray())
        return fail(std::string("cannot read metrics from ") + argv[1]);

    const std::string cmd = std::string(argv[2]) + " --workload " +
                            workload + " --smoke --trace " + argv[4];
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return fail("cannot run " + cmd);
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    const int status = ::pclose(p);
    std::fputs(out.c_str(), stdout);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return fail(cmd + " did not exit 0");

    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    const auto result = ecov::JsonValue::parse(
        out.substr(out.find_last_of('\n') + 1));
    if (!result || !result->isObject())
        return fail("last line is not a JSON object");
    const ecov::JsonValue *correct = result->find("correct");
    const ecov::JsonValue *metrics = result->find("metrics");
    if (result->asObject().size() != 4 || !correct || !correct->isBool() ||
        !metrics || !metrics->isObject() ||
        result->numberOr("attempted", 0) < 1 ||
        result->numberOr("failed", -1) != 0)
        return fail("result keys are not correct/attempted/failed/"
                    "metrics, or a request failed");
    if (!correct->asBool())
        return fail("the run reported correct=false");

    std::set<std::string> want;
    for (const ecov::JsonValue &m : declared->asArray()) {
        const std::string name = m.stringOr("name", "");
        want.insert(name);
        const ecov::JsonValue *got = metrics->find(name);
        if (!got || !got->find("value") || !got->find("value")->isNumber())
            return fail("metric " + name + " missing");
        if (got->stringOr("unit", "") != m.stringOr("unit", ""))
            return fail("metric " + name + " has unit " +
                        got->stringOr("unit", "") + ", BENCHMARK.json "
                        "declares " + m.stringOr("unit", ""));
    }
    for (const auto &[name, m] : metrics->asObject())
        if (!want.count(name))
            return fail("metric " + name + " is not declared");
    std::printf("perf_smoke: PASS %s trace=%d (%zu metrics)\n",
                workload.c_str(), trace ? 1 : 0, want.size());
    return 0;
}
