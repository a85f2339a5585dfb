#include "runtime/kernel_cache.hpp"

#include <mutex>

#include "ir/analysis.hpp"

namespace npad::rt {

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

size_t KernelCache::size() const {
  std::shared_lock lk(mu_);
  return by_sig_.size();
}

const Kernel* KernelCache::get(const ir::LambdaPtr& f, bool* was_hit) {
  return lookup(Form::Map, f, nullptr, was_hit);
}

const Kernel* KernelCache::get_reduce(const ir::LambdaPtr& op, const ir::LambdaPtr& pre,
                                      bool scan, bool* was_hit) {
  return lookup(scan ? Form::Scan : Form::Reduce, op, pre, was_hit);
}

const Kernel* KernelCache::lookup(Form form, const ir::LambdaPtr& op, const ir::LambdaPtr& pre,
                                  bool* was_hit) {
  const Key key{op.get(), pre.get(), form};
  {
    std::shared_lock lk(mu_);
    auto it = by_ptr_.find(key);
    if (it != by_ptr_.end()) {
      if (was_hit) *was_hit = true;
      return it->second;
    }
  }

  // Unknown pointers: try to alias a structurally identical entry. The
  // signature is the form marker, the op, then the pre-lambda when present
  // (an absent pre is distinguished by the marker payload).
  std::vector<uint64_t> sig;
  sig.push_back(0x7900000000000000ull + static_cast<uint64_t>(form));
  ir::detail::SigBuilder b(sig);
  b.lambda(*op);
  sig.push_back(pre != nullptr);
  if (pre) b.lambda(*pre);
  const uint64_t h = ir::structural_hash(sig);

  // Under the exclusive lock: a pointer entry (raced with another thread)
  // or a structural alias, pinned so its pointer key stays unambiguous.
  auto known = [&]() -> std::optional<const Kernel*> {
    auto pit = by_ptr_.find(key);
    if (pit != by_ptr_.end()) return pit->second;
    auto [lo, hi] = by_sig_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.sig != sig) continue;
      const Kernel* k = kernel_of(it->second);
      by_ptr_.emplace(key, k);
      pinned_.push_back(op);
      if (pre) pinned_.push_back(pre);
      return k;
    }
    return std::nullopt;
  };
  {
    std::unique_lock lk(mu_);
    if (auto k = known()) {
      if (was_hit) *was_hit = true;  // compilation was skipped
      return *k;
    }
  }

  // Compile outside the lock; on a race the first insert wins.
  auto compiled = std::make_unique<const std::optional<Kernel>>(
      form == Form::Map ? compile_kernel(*op)
                        : compile_reduce_kernel(*op, pre.get(), form == Form::Scan));
  std::unique_lock lk(mu_);
  if (auto k = known()) {
    if (was_hit) *was_hit = true;
    return *k;
  }
  auto it = by_sig_.emplace(h, Entry{std::move(sig), op, pre, std::move(compiled)});
  const Kernel* k = kernel_of(it->second);
  by_ptr_.emplace(key, k);
  if (was_hit) *was_hit = false;
  return k;
}

} // namespace npad::rt
