// Shared-memory arrays for the PRAM machine.
//
// Array<T> is the only way PRAM step bodies touch memory. Inside a step,
// `get` reads the pre-step value and `put` buffers a write that commits at
// the end-of-step barrier; between steps the host (the sequential driver
// program) may freely inspect or mutate contents through `host*` accessors.
//
// In checked policies every get/put also updates per-cell access stamps
// (step id + processor id); a get/put that finds a stamp of the same step
// left by another processor is a concurrent access, judged by the policy.
// Writes are buffered in processor order, because a step runs its
// processors in order on one host thread (pram/machine.hpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pram/machine.hpp"

namespace copath::pram {

template <typename T>
class Array : private detail::ArrayBase {
 public:
  using value_type = T;

  /// Allocates `n` cells initialized to `init` on `machine`.
  Array(Machine& machine, std::size_t n, T init = T{})
      : detail::ArrayBase(machine), data_(n, init) {
    init_shadow();
  }

  /// Adopts existing contents.
  Array(Machine& machine, std::vector<T> data)
      : detail::ArrayBase(machine), data_(std::move(data)) {
    init_shadow();
  }

  Array(Array&& other) noexcept = default;
  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;
  Array& operator=(Array&&) = delete;

  ~Array() override {
    if (machine_ != nullptr)
      machine_->add_cells(-static_cast<std::int64_t>(data_.size()));
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }

  // --- PRAM access (only valid inside a step body) ---------------------

  /// Reads cell i as processor ctx.proc(); sees the pre-step value.
  [[nodiscard]] T get(Ctx& ctx, std::size_t i) const {
    COPATH_DCHECK(i < data_.size());
    if (checked_) note_read(ctx, i);
    return data_[i];
  }

  /// Writes cell i as processor ctx.proc(); takes effect at step end.
  void put(Ctx& ctx, std::size_t i, T value) {
    COPATH_DCHECK(i < data_.size());
    if (checked_) note_write(ctx, i);
    pending_.push_back(
        WriteRec{i, static_cast<std::uint32_t>(ctx.proc()), std::move(value)});
  }

  // --- Host access (only valid between steps) --------------------------

  [[nodiscard]] const T& host(std::size_t i) const {
    COPATH_DCHECK(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] T& host(std::size_t i) {
    COPATH_DCHECK(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] std::span<const T> host_span() const { return data_; }
  [[nodiscard]] std::span<T> host_span() { return data_; }
  [[nodiscard]] std::vector<T> to_vector() const { return data_; }

 private:
  struct WriteRec {
    std::size_t index;
    std::uint32_t proc;
    T value;
  };

  void init_shadow() {
    checked_ = machine_->checked();
    if (checked_ && !data_.empty()) {
      read_stamp_ = std::make_unique<std::uint64_t[]>(data_.size());
      write_stamp_ = std::make_unique<std::uint64_t[]>(data_.size());
    }
    machine_->add_cells(static_cast<std::int64_t>(data_.size()));
  }

  void note_read(Ctx& ctx, std::size_t i) const {
    ++ctx.reads_;
    const std::uint64_t step = machine_->current_step();
    const std::uint64_t me = detail::pack_stamp(step, ctx.proc());
    const std::uint64_t prev_r = std::exchange(read_stamp_[i], me);
    const Policy policy = machine_->policy();
    if (detail::stamp_step(prev_r) == step &&
        detail::stamp_proc(prev_r) != ctx.proc() + 1 &&
        !allows_concurrent_read(policy)) {
      violation(ctx, i, "concurrent READ/READ", detail::stamp_proc(prev_r) - 1);
    }
    const std::uint64_t w = write_stamp_[i];
    if (detail::stamp_step(w) == step) {
      if (detail::stamp_proc(w) == ctx.proc() + 1) {
        // Deferred-write semantics make this read return the stale pre-step
        // value, which is almost certainly a bug in the step body — flag it.
        violation(ctx, i, "READ after own WRITE in the same step (stale read)",
                  ctx.proc());
      } else if (!allows_concurrent_write(policy)) {
        violation(ctx, i, "READ of cell being WRITTEN",
                  detail::stamp_proc(w) - 1);
      }
    }
  }

  void note_write(Ctx& ctx, std::size_t i) const {
    ++ctx.writes_;
    const std::uint64_t step = machine_->current_step();
    const std::uint64_t me = detail::pack_stamp(step, ctx.proc());
    const std::uint64_t prev_w = std::exchange(write_stamp_[i], me);
    const Policy policy = machine_->policy();
    if (detail::stamp_step(prev_w) == step &&
        detail::stamp_proc(prev_w) != ctx.proc() + 1 &&
        !allows_concurrent_write(policy)) {
      violation(ctx, i, "concurrent WRITE/WRITE",
                detail::stamp_proc(prev_w) - 1);
    }
    const std::uint64_t r = read_stamp_[i];
    if (detail::stamp_step(r) == step &&
        detail::stamp_proc(r) != ctx.proc() + 1 &&
        !allows_concurrent_write(policy)) {
      violation(ctx, i, "WRITE of cell being READ",
                detail::stamp_proc(r) - 1);
    }
  }

  void violation(Ctx& ctx, std::size_t i, const char* kind,
                 std::uint64_t other_proc) const {
    std::ostringstream os;
    os << to_string(machine_->policy()) << " violation: " << kind
       << " at cell " << i << " by processors " << ctx.proc() << " and "
       << other_proc << " in step " << machine_->current_step();
    machine_->report_violation(os.str());
  }

  std::uint64_t commit_pending(Policy policy) override {
    std::uint64_t committed = 0;
    if (policy == Policy::CRCW_Common) {
      commit_common(committed);
      return committed;
    }
    if (policy == Policy::CRCW_Priority) {
      // Lowest processor id wins: apply in descending processor order so the
      // smallest id writes last. The buffer is in processor order, so
      // reverse iteration suffices.
      for (auto rec = pending_.rbegin(); rec != pending_.rend(); ++rec) {
        data_[rec->index] = std::move(rec->value);
        ++committed;
      }
      pending_.clear();
      return committed;
    }
    // EREW / CREW (at most one writer per cell — order irrelevant),
    // CRCW_Arbitrary (deterministically: highest processor id wins),
    // Unchecked.
    for (auto& rec : pending_) {
      data_[rec.index] = std::move(rec.value);
      ++committed;
    }
    pending_.clear();
    return committed;
  }

  void commit_common(std::uint64_t& committed) {
    // Common-CRCW: all concurrent writers must agree on the value. The
    // agreement check needs operator==; for non-comparable payload types the
    // commit degrades to Arbitrary semantics.
    if constexpr (std::equality_comparable<T>) {
      std::unordered_map<std::size_t, const T*> seen;
      for (auto& rec : pending_) {
        auto [it, inserted] = seen.emplace(rec.index, &rec.value);
        if (!inserted && !(*it->second == rec.value)) {
          std::ostringstream os;
          os << "CRCW(common) violation: writers disagree at cell "
             << rec.index << " in step " << machine_->current_step();
          machine_->report_violation(os.str());
        }
        data_[rec.index] = rec.value;
        ++committed;
      }
    } else {
      for (auto& rec : pending_) {
        data_[rec.index] = std::move(rec.value);
        ++committed;
      }
    }
    pending_.clear();
  }

  std::vector<T> data_;
  bool checked_ = false;
  std::unique_ptr<std::uint64_t[]> read_stamp_;
  std::unique_ptr<std::uint64_t[]> write_stamp_;
  std::vector<WriteRec> pending_;  // this step's writes, in processor order
};

}  // namespace copath::pram
