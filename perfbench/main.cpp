// Layered benchmark binary: runs one named workload for a fixed time
// and prints the machine fingerprint, then one JSON line with the operation
// tally and every metric it measured. run.py builds this binary, runs it and
// turns its output into the benchmark's result line; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--trace-out <file.json>]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "serve/json.hpp"

using namespace perfbench;
using npad::serve::Json;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  mark_process_start();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val().c_str());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--trace-out") a.trace_out = val();
    else usage(("unknown argument " + k).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");

  void (*run)(const Args&, Report*) = nullptr;
  if (a.workload == "kmeans_hvp") run = run_kmeans_hvp;
  else if (a.workload == "lstm_grad") run = run_lstm_grad;
  else if (a.workload == "adbench_jac") run = run_adbench_jac;
  else if (a.workload == "serve_open") run = run_serve_open;
  else usage(("unknown workload '" + a.workload + "'").c_str());

  // Compute workloads pin the runtime to one thread: at these sizes threads
  // do not pay, and with four threads the ratios lost their steadiness.
  // Serving keeps the runtime's default thread count.
  if (a.workload == "serve_open") unsetenv("NPAD_NUM_THREADS");
  else setenv("NPAD_NUM_THREADS", "1", 1);
  if (a.trace) trace::enable();

  const std::string load_start = load_average();
  const auto ticks_start = cpu_ticks();
  Report rep;
  try {
    run(a, &rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  if (a.trace && !a.trace_out.empty()) trace::write(a.trace_out);
  auto fp = fingerprint(a);
  fp["load_start"] = load_start;
  fp["load_end"] = load_average();
  // Share of the machine's CPU time the hypervisor took away during the run.
  const auto ticks_end = cpu_ticks();
  if (ticks_end.first > ticks_start.first) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f",
                  static_cast<double>(ticks_end.second - ticks_start.second) /
                      static_cast<double>(ticks_end.first - ticks_start.first));
    fp["cpu_steal_share"] = buf;
  }
  Json fpj = Json::object();
  for (const auto& [k, v] : fp) fpj.set(k, Json::string(v));
  Json head = Json::object();
  head.set("fingerprint", std::move(fpj));
  std::printf("%s\n", head.dump().c_str());

  Json metrics = Json::object();
  for (const auto& [name, vu] : rep.metrics) {
    Json m = Json::object();
    m.set("value", Json::number(vu.first));
    m.set("unit", Json::string(vu.second));
    metrics.set(name, std::move(m));
  }
  Json samples = Json::object();
  for (const auto& [name, vals] : rep.samples) {
    Json arr = Json::array();
    for (double v : vals) arr.push(Json::number(v));
    samples.set(name, std::move(arr));
  }
  Json notes = Json::array();
  for (const auto& n : rep.notes) notes.push(Json::string(n));
  Json res = Json::object();
  res.set("correct", Json::boolean(rep.correct));
  res.set("attempted", Json::number(static_cast<double>(rep.attempted)));
  res.set("failed", Json::number(static_cast<double>(rep.failed)));
  res.set("metrics", std::move(metrics));
  res.set("samples", std::move(samples));
  res.set("notes", std::move(notes));
  std::printf("%s\n", res.dump().c_str());
  return 0;
}
