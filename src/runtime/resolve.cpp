#include "runtime/resolve.hpp"

#include <array>
#include <cassert>
#include <mutex>

#include "ir/analysis.hpp"
#include "ir/visit.hpp"

namespace npad::rt {

namespace {

using namespace ir;

// Walks an alpha-renamed function and assigns every binding a slot in its
// enclosing activation. Activations are opened at the function root, at each
// lambda, and at each loop body; if-branch bodies (and any other nested
// bodies) share the enclosing activation's frame — their binding ids are
// unique after renaming, so slots never collide.
class Resolver {
public:
  explicit Resolver(ResolvedProg& rp) : rp_(rp) {}

  void run() {
    rp_.slots.assign(rp_.mod->num_vars(), SlotRef{});
    rp_.root_activation = push_activation();
    for (const auto& p : rp_.fn.params) bind(p.var);
    body(rp_.fn.body);
    pop_activation();
  }

private:
  struct Act {
    uint32_t id = 0;
    uint32_t next_slot = 0;
  };

  uint32_t push_activation() {
    const auto id = static_cast<uint32_t>(rp_.activations.size());
    rp_.activations.push_back(ActivationInfo{static_cast<uint32_t>(stack_.size()), 0});
    stack_.push_back(Act{id, 0});
    return id;
  }

  void pop_activation() {
    rp_.activations[stack_.back().id].num_slots = stack_.back().next_slot;
    stack_.pop_back();
  }

  void bind(Var v) {
    assert(v.valid() && v.id < rp_.slots.size());
    assert(!rp_.slots[v.id].valid() && "binding id not unique after alpha-renaming");
    rp_.slots[v.id] =
        SlotRef{rp_.activations[stack_.back().id].level, stack_.back().next_slot++};
  }

  void lambda(const Lambda& l) {
    l.activation_id.v = push_activation();
    for (const auto& p : l.params) bind(p.var);
    body(l.body);
    pop_activation();
  }

  void body(const Body& b) {
    for (const auto& st : b.stms) {
      exp(st.e);
      for (Var v : st.vars) bind(v);
    }
  }

  void exp(const Exp& e) {
    std::visit(Overload{
                   [&](const OpIf& o) {
                     body(*o.tb);
                     body(*o.fb);
                   },
                   [&](const OpLoop& o) {
                     if (o.while_cond) lambda(*o.while_cond);
                     o.activation_id.v = push_activation();
                     for (const auto& p : o.params) bind(p.var);
                     if (o.idx.valid()) bind(o.idx);
                     body(*o.body);
                     pop_activation();
                   },
                   [&](const OpMap& o) { lambda(*o.f); },
                   [&](const OpReduce& o) {
                     lambda(*o.op);
                     if (o.pre) lambda(*o.pre);
                   },
                   [&](const OpScan& o) {
                     lambda(*o.op);
                     if (o.pre) lambda(*o.pre);
                   },
                   [&](const OpHist& o) {
                     lambda(*o.op);
                     if (o.pre) lambda(*o.pre);
                   },
                   [&](const OpWithAcc& o) { lambda(*o.f); },
                   [&](const auto&) {},
               },
               e);
  }

  ResolvedProg& rp_;
  std::vector<Act> stack_;
};

} // namespace

std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p) {
  auto rp = std::make_shared<ResolvedProg>();
  // Clone into a private module copy: Cloner::bind allocates fresh ids there,
  // and the original module stays untouched (it may be shared by callers).
  rp->mod = std::make_shared<ir::Module>(*p.mod);
  ir::Cloner c(*rp->mod, /*refresh=*/true);
  ir::Subst s;
  rp->fn.name = p.fn.name;
  rp->fn.rets = p.fn.rets;
  rp->fn.params.reserve(p.fn.params.size());
  for (const auto& pr : p.fn.params) {
    rp->fn.params.push_back(ir::Param{c.bind_in(pr.var, s), pr.type});
  }
  rp->fn.body = c.body(p.fn.body, std::move(s));
  Resolver(*rp).run();
  return rp;
}

ProgCache& ProgCache::global() {
  static ProgCache cache;
  return cache;
}

size_t ProgCache::size() const {
  std::shared_lock lk(mu_);
  return by_sig_.size();
}

namespace {

// The hit path of ProgCache::get (resolve.hpp): the last few programs this
// thread looked up, each with a shallow copy of its function then. The copy
// keeps the program's nested nodes alive, which is what makes comparing
// them by pointer sound.
struct MemoEntry {
  const ir::Prog* prog = nullptr;
  ir::Function fn;
  std::shared_ptr<const ResolvedProg> rp;
};

// Sized to hold a serving worker's whole working set: the built-in registry
// (serve/registry.cpp) serves 6 programs in 2 modes, 12 Prog objects. The
// perfbench serve_open open loop sends 9 of them through each of its 2
// batcher workers: with 8 entries it still hashed on 0.010-0.017 of its
// requests (round-robin eviction), with 16 on none of them.
constexpr size_t kMemoEntries = 16;

struct Memo {
  std::array<MemoEntry, kMemoEntries> entries;
  size_t next = 0;  // round-robin victim when no entry has the address
};

thread_local Memo memo;

} // namespace

std::shared_ptr<const ResolvedProg> ProgCache::get(const ir::Prog& p, bool* hashed) {
  MemoEntry* slot = nullptr;
  for (MemoEntry& e : memo.entries) {
    if (e.prog != &p) continue;
    if (e.fn == p.fn) {
      if (hashed) *hashed = false;
      return e.rp;
    }
    slot = &e;  // the program at this address changed: refresh its entry
    break;
  }
  auto rp = get_structural(p);
  if (hashed) *hashed = true;
  if (!slot) slot = &memo.entries[memo.next++ % kMemoEntries];
  *slot = MemoEntry{&p, p.fn, rp};
  return rp;
}

std::shared_ptr<const ResolvedProg> ProgCache::get_structural(const ir::Prog& p) {
  std::vector<uint64_t> sig = ir::structural_sig(p.fn);
  const uint64_t h = ir::structural_hash(sig);
  {
    std::shared_lock lk(mu_);
    auto [lo, hi] = by_sig_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.sig == sig) return it->second.rp;
    }
  }
  // Resolve outside the lock; a racing thread may do the same work, but the
  // first insert wins and the duplicate is discarded.
  auto rp = resolve_prog(p);
  std::unique_lock lk(mu_);
  auto [lo, hi] = by_sig_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.sig == sig) return it->second.rp;
  }
  by_sig_.emplace(h, Entry{std::move(sig), rp});
  return rp;
}

} // namespace npad::rt
