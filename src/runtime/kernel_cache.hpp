#pragma once

// Process-wide cache of compiled kernels — map kernels and the reduce and
// scan forms of fold kernels — keyed by the structural hash of the lambdas
// (ir::structural_hash). Entries are immortal: a KernelLaunch can never
// outlive its Kernel, which fixes the per-launch thread_local lifetime hazard
// the interpreter used to have with nested maps.
//
// One lookup serves every form, over two levels:
//  - a pointer-keyed fast path on (op, pre, form) (the cache pins every
//    LambdaPtr it has seen, so a Lambda address can never be reused by a
//    different lambda while the entry lives — pointer identity is a sound
//    key);
//  - a structural-signature path that lets structurally identical lambdas
//    from different programs share one compiled kernel, and that negatively
//    caches non-kernelizable lambdas so they are not re-analyzed per launch.
//    The form leads the signature, so a lambda's map kernel and its reduce
//    and scan kernels are distinct entries.
//
// Reads take a shared lock, so parallel outer loops hitting the cache do not
// serialize; the exclusive lock is only taken to insert.

#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"

namespace npad::rt {

class KernelCache {
public:
  static KernelCache& global();

  // Returns the cached kernel for `f`, compiling on first sight; nullptr when
  // `f` is not kernel-compilable (also cached). `was_hit` (optional) reports
  // whether compilation/analysis was skipped.
  const Kernel* get(const ir::LambdaPtr& f, bool* was_hit = nullptr);

  // Reduction kernels: the cached kernel for fold operator `op` plus the
  // optional redomap pre-lambda `pre` (may be null), in reduce or scan
  // (`scan`) form — the same fold op compiles separately as reduce and as
  // scan.
  const Kernel* get_reduce(const ir::LambdaPtr& op, const ir::LambdaPtr& pre, bool scan,
                           bool* was_hit = nullptr);

  // Number of distinct (structural) entries over all forms; for tests and
  // diagnostics.
  size_t size() const;

private:
  enum class Form : uint8_t { Map, Reduce, Scan };

  struct Entry {
    std::vector<uint64_t> sig;
    ir::LambdaPtr lam;  // pinned: keeps pointer keys unambiguous
    ir::LambdaPtr pre;  // pinned too (may be null)
    std::unique_ptr<const std::optional<Kernel>> kern;
  };

  // Pointer-identity key.
  struct Key {
    const ir::Lambda* op = nullptr;
    const ir::Lambda* pre = nullptr;
    Form form = Form::Map;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept {
      size_t h = std::hash<const void*>{}(k.op);
      h ^= std::hash<const void*>{}(k.pre) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h ^ static_cast<size_t>(k.form);
    }
  };

  const Kernel* lookup(Form form, const ir::LambdaPtr& op, const ir::LambdaPtr& pre,
                       bool* was_hit);

  const Kernel* kernel_of(const Entry& e) const {
    return e.kern->has_value() ? &**e.kern : nullptr;
  }

  mutable std::shared_mutex mu_;
  std::unordered_multimap<uint64_t, Entry> by_sig_;
  // Values point into by_sig_ entries' heap-allocated optionals (stable across
  // rehash). Presence in the map is the "known" signal; the value may be null
  // for non-kernelizable lambdas.
  std::unordered_map<Key, const Kernel*, KeyHash> by_ptr_;
  std::vector<ir::LambdaPtr> pinned_;  // aliases resolved via the sig path
};

} // namespace npad::rt
