#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/ad.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/resolve.hpp"
#include "runtime/vexec.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {
Clock::time_point g_start = Clock::now();
}  // namespace

void mark_process_start() { g_start = Clock::now(); }

double now_s() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from the
  // parent across fork and exec, so a child of a larger process would report
  // its parent's peak.
  std::ifstream st("/proc/self/status");
  for (std::string line; std::getline(st, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

// ------------------------------------------------------------------ spans --

namespace trace {
namespace {

struct SpanRec {
  std::string name;
  double start_s = 0, end_s = 0;
  int parent = -1;
  int id = -1;
  uint32_t tid = 0;
};

std::atomic<bool> g_on{false};
std::atomic<int> g_next_id{0};
std::mutex g_mu;
std::vector<SpanRec> g_spans;  // guarded by g_mu
thread_local std::vector<int> t_stack;

uint32_t thread_tag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1);
  return tag;
}

int record_with_id(int id, const std::string& name, double start_s, double end_s, int parent) {
  SpanRec r{name, start_s, end_s, parent, id, thread_tag()};
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(std::move(r));
  return id;
}

int current() { return t_stack.empty() ? -1 : t_stack.back(); }

std::vector<SpanRec> spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<SpanRec> out = g_spans;
  std::sort(out.begin(), out.end(), [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
  return out;
}

}  // namespace

void enable() { g_on.store(true); }
bool on() { return g_on.load(std::memory_order_relaxed); }

int record(const std::string& name, double start_s, double end_s, int parent) {
  return record_with_id(g_next_id.fetch_add(1), name, start_s, end_s, parent);
}

void write(const std::string& path) {
  const std::vector<SpanRec> all = spans();
  std::map<int, double> child_s;  // span id -> summed child duration
  for (const auto& s : all) {
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  struct Row {
    uint64_t count = 0;
    double total_s = 0, self_s = 0;
  };
  std::map<std::string, Row> rows;
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& s : all) {
    const double dur = s.end_s - s.start_s;
    Row& r = rows[s.name];
    r.count += 1;
    r.total_s += dur;
    r.self_s += dur - child_s[s.id];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}",
                  first ? "" : ",", s.name.c_str(), s.tid, s.start_s * 1e6, dur * 1e6, s.id,
                  s.parent);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
  std::ostringstream tab;
  tab << "span                      count     total_ms      self_ms\n";
  for (const auto& [name, r] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-22s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_s * 1e3, r.self_s * 1e3);
    tab << buf;
  }
  std::ofstream(path + ".selftime.txt") << tab.str();
  std::fprintf(stderr, "per-layer self time (%s):\n%s", path.c_str(), tab.str().c_str());
}
}  // namespace trace

Span::Span(const char* name) : name_(name), start_(now_s()) {
  if (!trace::on()) return;
  parent_ = trace::current();
  id_ = trace::g_next_id.fetch_add(1);
  trace::t_stack.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  trace::t_stack.pop_back();
  trace::record_with_id(id_, name_, start_, now_s(), parent_);
}

// ------------------------------------------------------------ fingerprint --

std::string load_average() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", l[0], l[1], l[2]);
  return buf;
}

std::pair<uint64_t, uint64_t> cpu_ticks() {
  std::ifstream st("/proc/stat");
  std::string cpu;
  st >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t v = 0, all = 0, steal = 0;
  for (int i = 0; i < 8 && st >> v; ++i) {
    all += v;
    if (i == 7) steal = v;
  }
  return {all, steal};
}

std::map<std::string, std::string> fingerprint(const Args& a) {
  std::map<std::string, std::string> fp;
  std::string cpu = "unknown";
  std::ifstream ci("/proc/cpuinfo");
  for (std::string line; std::getline(ci, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  fp["cpu"] = cpu;
  fp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  fp["compiler"] = PERFBENCH_COMPILER;
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["vexec_isa"] = npad::rt::default_use_vexec()
                        ? npad::rt::vexec::select_ops(npad::rt::default_vexec_portable())->name
                        : "off";
  fp["runtime_threads"] = std::to_string(npad::support::ThreadPool::global().thread_count());
  fp["seed"] = std::to_string(a.seed);
  fp["workload"] = a.workload;
  return fp;
}

// ------------------------------------------------------------------ checks --

bool close(const std::vector<double>& got, const std::vector<double>& want, double rtol,
           std::string* why) {
  if (got.size() != want.size()) {
    if (why) *why = "size " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
    return false;
  }
  double scale = 1.0;
  for (double w : want) scale = std::max(scale, std::fabs(w));
  for (size_t i = 0; i < got.size(); ++i) {
    // Written so that a NaN fails.
    if (!(std::fabs(got[i] - want[i]) <= rtol * scale)) {
      if (why) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "element %zu: %.17g vs %.17g", i, got[i], want[i]);
        *why = buf;
      }
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ npad layers --

npad::ir::Prog differentiate(const npad::ir::Prog& p, bool reverse, SetupFigures* sf) {
  Span s("core.ad");
  npad::ir::Prog out = reverse ? npad::ad::vjp(p) : npad::ad::jvp(p);
  npad::ir::typecheck(out);
  sf->ad_ms += 1e3 * s.elapsed();
  sf->ad_stms += static_cast<double>(npad::ir::count_stms(out.fn.body));
  return out;
}

npad::ir::Prog optimize(const npad::ir::Prog& p, SetupFigures* sf) {
  Span s("opt.optimize");
  npad::opt::PipelineStats st;
  npad::ir::Prog out = npad::opt::optimize(p, {}, &st);
  npad::ir::typecheck(out);
  sf->optimize_ms += 1e3 * s.elapsed();
  sf->opt_stms += static_cast<double>(npad::ir::count_stms(out.fn.body));
  sf->opt_fused += st.fuse.fused_maps + st.fuse.fused_redomaps + st.fuse.fused_hists;
  sf->opt_flattened += st.flatten.flattened_maps + st.flatten.flattened_redomaps;
  return out;
}

std::vector<npad::rt::Value> run_traced(const npad::rt::Interp& in, const npad::ir::Prog& p,
                                        const std::vector<npad::rt::Value>& args) {
  if (trace::on()) {
    Span s("runtime.resolve");
    (void)npad::rt::ProgCache::global().get(p);
  }
  Span s("runtime.run");
  return in.run(p, args);
}

std::vector<double> f64s(const std::vector<npad::rt::Value>& res, size_t i) {
  if (i >= res.size()) return {};
  const npad::rt::Value& v = res[i];
  if (std::holds_alternative<double>(v)) return {std::get<double>(v)};
  if (!npad::rt::is_array(v)) return {};
  return npad::rt::to_f64_vec(npad::rt::as_array(v));
}

// -------------------------------------------------------- compute workloads --

namespace {

// Per-op spans of a traced run: summed durations of the op's direct children.
struct OpSpans {
  double op_s = 0, resolve_s = 0, run_s = 0, children_s = 0, ref_s = 0;
};

std::vector<OpSpans> op_spans() {
  const std::vector<trace::SpanRec> all = trace::spans();
  std::map<int, OpSpans> by_op;
  std::vector<double> refs;
  for (const auto& s : all) {
    if (s.name == "op") by_op[s.id].op_s = s.end_s - s.start_s;
    if (s.name == "ref") refs.push_back(s.end_s - s.start_s);
  }
  for (const auto& s : all) {
    auto it = by_op.find(s.parent);
    if (it == by_op.end()) continue;
    const double d = s.end_s - s.start_s;
    it->second.children_s += d;
    if (s.name == "runtime.resolve") it->second.resolve_s += d;
    if (s.name == "runtime.run") it->second.run_s += d;
  }
  std::vector<OpSpans> out;
  for (auto& [id, o] : by_op) out.push_back(o);
  // Ops and refs alternate, so the k-th op pairs with the k-th ref.
  for (size_t k = 0; k < out.size() && k < refs.size(); ++k) out[k].ref_s = refs[k];
  return out;
}

double pool_misses() { return static_cast<double>(npad::rt::BufferPool::global().stats().misses); }

}  // namespace

void run_compute(const Args& a, const SetupFigures& sf, ComputeOps& ops, Report* rep) {
  std::string why;
  // The first (cold) op resolves, plans and compiles kernels; it is checked
  // like every other op.
  double cold_s = 0;
  bool cold_ok = false;
  try {
    {
      Span s("cold_op");
      ops.op();
      cold_s = s.elapsed();
    }
    ops.ref();
    cold_ok = ops.check(&why);
  } catch (const std::exception& e) {
    why = e.what();
  }
  rep->attempted += 1;
  if (!cold_ok) {
    rep->failed += 1;
    std::fprintf(stderr, "cold op failed: %s\n", why.c_str());
  } else {
    // Self-test: the check must reject a deliberately perturbed derivative.
    ops.perturb();
    if (ops.check(&why)) rep->fail_harness("self-test: a perturbed derivative passed the check");
  }
  rep->set("setup_s", now_s(), "s");
  const auto c0 = ops.counters();
  rep->set("runtime.plans_compiled", static_cast<double>(c0.at("plans_compiled")), "count");
  rep->set("runtime.kernels_compiled",
           static_cast<double>(npad::rt::KernelCache::global().size()), "count");

  const double pm0 = pool_misses();
  std::vector<double> ratios, op_ms, ref_ms;
  const double deadline = now_s() + a.seconds;
  uint64_t timed = 0;
  while (now_s() < deadline) {
    bool ok = false;
    try {
      const Clock::time_point t0 = Clock::now();
      {
        Span s("op");
        ops.op();
      }
      const Clock::time_point t1 = Clock::now();
      {
        Span s("ref");
        ops.ref();
      }
      const Clock::time_point t2 = Clock::now();
      const double o = std::chrono::duration<double>(t1 - t0).count();
      const double r = std::chrono::duration<double>(t2 - t1).count();
      ratios.push_back(o / r);
      op_ms.push_back(o * 1e3);
      ref_ms.push_back(r * 1e3);
      ok = ops.check(&why);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ++timed;
    if (!ok) {
      rep->failed += 1;
      if (rep->failed <= 3) std::fprintf(stderr, "op %llu failed: %s\n",
                                         static_cast<unsigned long long>(timed), why.c_str());
    }
  }
  rep->attempted += timed;
  const auto c1 = ops.counters();
  const double n = static_cast<double>(std::max<uint64_t>(timed, 1));
  auto per_op = [&](const char* key) {
    return static_cast<double>(c1.at(key) - c0.at(key)) / n;
  };

  rep->set("op_x_ref", median(ratios), "x");
  rep->samples["op_x_ref"] = ratios;
  rep->set("peak_rss_mb", peak_rss_mb(), "MB");

  rep->set("core.ad_ms", sf.ad_ms, "ms");
  rep->set("core.stms", sf.ad_stms, "count");
  rep->set("opt.optimize_ms", sf.optimize_ms, "ms");
  rep->set("opt.stms", sf.opt_stms, "count");
  rep->set("opt.fused", sf.opt_fused, "count");
  rep->set("opt.flattened", sf.opt_flattened, "count");
  rep->set("runtime.cold_run_ms", cold_s * 1e3 - median(op_ms), "ms");
  rep->set("runtime.run_calls", ops.run_calls, "count");
  rep->set("runtime.plan_launches", per_op("plan_launches"), "count");
  rep->set("runtime.arena_reuses", per_op("arena_reuses"), "count");
  rep->set("runtime.vexec_launches", per_op("vexec_launches"), "count");
  rep->set("runtime.general_maps", per_op("general_maps"), "count");
  rep->set("runtime.general_reduces", per_op("general_reduces"), "count");
  rep->set("runtime.pool_misses", (pool_misses() - pm0) / n, "count");
  rep->set("runtime.pool_retained_mb",
           static_cast<double>(npad::rt::BufferPool::global().stats().retained_bytes) / 1e6, "MB");
  rep->set("wall.ref_ms", median(ref_ms), "ms");

  if (!trace::on()) {
    rep->set("wall.op_ms", median(op_ms), "ms");
    return;
  }
  // Traced run: the op's spans, less the extra ProgCache::get each traced
  // run adds, in units of the reference op right after it.
  std::vector<double> resolve_x, run_x, coverage, op_x, op_wall;
  for (const OpSpans& o : op_spans()) {
    if (o.ref_s <= 0 || o.op_s <= 0) continue;
    resolve_x.push_back(o.resolve_s / o.ref_s);
    run_x.push_back(o.run_s / o.ref_s);
    coverage.push_back(o.children_s / o.op_s);
    op_x.push_back((o.op_s - o.resolve_s) / o.ref_s);
    op_wall.push_back((o.op_s - o.resolve_s) * 1e3);
  }
  rep->set("runtime.resolve_x_ref", median(resolve_x), "x");
  rep->set("runtime.run_x_ref", median(run_x), "x");
  rep->set("trace.op_span_coverage", median(coverage), "ratio");
  rep->set("trace.op_x_ref", median(op_x), "x");
  rep->set("wall.op_ms", median(op_wall), "ms");
}

}  // namespace perfbench
