#pragma once

// Shared pieces of the layered benchmark: command line, report, statistics,
// the in-memory span tracer, the machine fingerprint, and the interleaved
// op/reference timing loop that every compute workload runs.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/interp.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since main() was entered.
double now_s();
void mark_process_start();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event file of a traced run
};

// Metrics by name with their unit. End-to-end metrics come from untraced
// runs; per-layer metrics from traced runs (run.py picks the set).
struct Report {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  // Raw samples behind an end-to-end metric (the per-op ratios behind
  // "op_x_ref"), so that runs split over several processes can be pooled.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> notes;  // why `correct` went false

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_harness(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

// Peak resident set of this process, MB.
double peak_rss_mb();

// ------------------------------------------------------------------ spans --
// Spans are recorded only when enabled (traced runs), kept in memory, and
// written out at exit. A span's parent is the innermost open span on the
// same thread, unless given explicitly.
namespace trace {
void enable();
bool on();
// Records a finished span; returns its id. parent -1 = root.
int record(const std::string& name, double start_s, double end_s, int parent = -1);
// Chrome trace-event JSON, plus a per-span-name self-time table beside it
// and on stderr.
void write(const std::string& path);
}  // namespace trace

class Span {
public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Duration so far (seconds); valid whether or not tracing is on.
  double elapsed() const { return now_s() - start_; }

private:
  const char* name_;
  double start_;
  int id_ = -1;      // reserved id when tracing
  int parent_ = -1;
};

// ------------------------------------------------------------ fingerprint --
std::map<std::string, std::string> fingerprint(const Args& a);
std::string load_average();
// Machine-wide CPU time as (all, steal) jiffies from /proc/stat.
std::pair<uint64_t, uint64_t> cpu_ticks();

// ------------------------------------------------------------------ checks --
// True when |got[i] - want[i]| <= rtol * max(1, max_j |want[j]|) for all i.
bool close(const std::vector<double>& got, const std::vector<double>& want, double rtol,
           std::string* why = nullptr);

// -------------------------------------------------------- compute workloads --
// One compute workload: `op` runs the npad operation, `ref` the plain-C++
// reference right after it, `check` compares the two outputs (and the
// workload's properties). `perturb` corrupts one derivative entry of the
// last op's output, for the harness self-test.
struct ComputeOps {
  std::function<void()> op, ref;
  std::function<bool(std::string*)> check;
  std::function<void()> perturb;
  // InterpStats counters of the interpreter the op runs on.
  std::function<std::map<std::string, uint64_t>()> counters;
  int run_calls = 0;  // Interp::run calls per op
};

// Setup-phase figures a compute workload fills before calling run_compute.
struct SetupFigures {
  double ad_ms = 0, optimize_ms = 0;
  double ad_stms = 0, opt_stms = 0, opt_fused = 0, opt_flattened = 0;
};

// ad::vjp (reverse) or ad::jvp inside a "core.ad" span; typechecks the result.
npad::ir::Prog differentiate(const npad::ir::Prog& p, bool reverse, SetupFigures* sf);
// opt::optimize inside an "opt.optimize" span; typechecks the result.
npad::ir::Prog optimize(const npad::ir::Prog& p, SetupFigures* sf);

// Interp::run inside a "runtime.run" span. Traced runs first call
// ProgCache::get on the program in a "runtime.resolve" span: the share of
// the run's front door that re-hashes and looks up the program.
std::vector<npad::rt::Value> run_traced(const npad::rt::Interp& in, const npad::ir::Prog& p,
                                        const std::vector<npad::rt::Value>& args);

// f64 contents of result `i` (scalar or array).
std::vector<double> f64s(const std::vector<npad::rt::Value>& res, size_t i);

// Runs the cold op, the self-test, then the interleaved op/ref loop for
// a.seconds, and fills every metric of a compute workload.
void run_compute(const Args& a, const SetupFigures& sf, ComputeOps& ops, Report* rep);

// Entry points, one per workload.
void run_kmeans_hvp(const Args& a, Report* rep);
void run_lstm_grad(const Args& a, Report* rep);
void run_adbench_jac(const Args& a, Report* rep);
void run_serve_open(const Args& a, Report* rep);

}  // namespace perfbench
