#pragma once

// Slot resolution: turns the interpreter's per-scope hash-map environments
// into flat vector frames. A program is alpha-renamed so every binding id is
// unique, then every variable is resolved once to an (activation level, slot)
// pair. At runtime an activation (function entry, lambda application, loop
// iteration) allocates one flat frame; variable lookup walks a static-link
// chain of frames and indexes — no hashing, no per-scope rehash churn.
//
// Resolution is cached process-wide, keyed by the structural hash of the
// entry function (ir::structural_hash), so iterative drivers that re-run the
// same Prog pay the cost once. Entries are immortal, and an entry is the one
// record of its compiled program: the execution plans (runtime/plan.hpp) and
// the batched serving form (runtime/batch.hpp) are built inside it on first
// use and share its lifetime.
//
// Computing the structural signature walks the whole program, which costs
// as much as running a small one. So a lookup first tries a per-thread,
// lock-free memo keyed by the Prog's address, holding the last 16 programs
// the thread looked up, each with a copy of the function it had then. A hit
// needs the function to equal that copy under the IR's shallow equality
// (ir/ast.hpp): top-level params, rets and statements field by field, nested
// bodies and lambdas by pointer. Comparing pointers is sound because the IR
// holds nested nodes as shared_ptr<const>: they cannot change in place, and
// the memo's copy keeps the old nodes alive, so a new node can never reuse
// an old node's address. A program edited at the top level, or a different
// program assigned to the same variable, misses and takes the structural
// path, which still lets structurally identical programs share one entry.

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"

namespace npad::rt {

// (activation level, slot index) of a variable's unique binding site.
struct SlotRef {
  uint32_t level = UINT32_MAX;
  uint32_t slot = 0;
  bool valid() const { return level != UINT32_MAX; }
};

struct ActivationInfo {
  uint32_t level = 0;      // static nesting depth (function body = 0)
  uint32_t num_slots = 0;  // frame size: params + all bindings in the scope
};

// A value built on first use, then immutable. A build that throws leaves the
// cell empty, so the next use retries it. std::call_once promises the same,
// but under ThreadSanitizer an exceptional execution leaves the once-flag
// held and every later call blocks.
template <class T>
class Lazy {
public:
  template <class Build>
  const T& get(Build&& build) const {
    if (!ready_.load(std::memory_order_acquire)) {
      std::lock_guard lk(mu_);
      if (!ready_.load(std::memory_order_relaxed)) {
        value_ = build();
        ready_.store(true, std::memory_order_release);
      }
    }
    return *value_;
  }

private:
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::shared_ptr<const T> value_;
};

struct ProgPlans;  // runtime/plan.hpp

struct ResolvedProg {
  std::shared_ptr<ir::Module> mod;         // private module copy (owns fresh ids)
  ir::Function fn;                         // alpha-renamed: binding ids unique
  std::vector<SlotRef> slots;              // var id -> (level, slot)
  std::vector<ActivationInfo> activations; // indexed by activation id
  uint32_t root_activation = 0;
  // Built on first use (plans_of, runtime/plan.hpp; Interp::run_batched,
  // runtime/batch.cpp). The plans' lambda keys point into `fn`.
  Lazy<ProgPlans> plans;
  Lazy<ResolvedProg> batched;
};

// Alpha-renames `p` into a private module copy and computes the slot table.
std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p);

// Process-wide immortal cache of resolved programs; global() is the one
// instance (the per-thread memo in resolve.cpp serves only it).
class ProgCache {
public:
  static ProgCache& global();

  // Returns the resolved form of `p`, resolving on first sight. Structurally
  // identical programs share one entry. A repeat lookup of the same,
  // unchanged Prog object on the same thread computes no signature; `hashed`,
  // if given, is set to whether this lookup computed one.
  std::shared_ptr<const ResolvedProg> get(const ir::Prog& p, bool* hashed = nullptr);

  size_t size() const;

private:
  ProgCache() = default;
  std::shared_ptr<const ResolvedProg> get_structural(const ir::Prog& p);

  struct Entry {
    std::vector<uint64_t> sig;
    std::shared_ptr<const ResolvedProg> rp;
  };

  mutable std::shared_mutex mu_;
  std::unordered_multimap<uint64_t, Entry> by_sig_;
};

} // namespace npad::rt
