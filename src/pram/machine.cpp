#include "pram/machine.hpp"

#include <utility>

namespace copath::pram {

namespace detail {

ArrayBase::ArrayBase(Machine& machine) : machine_(&machine) {
  slot_ = machine_->register_array(this);
}

ArrayBase::ArrayBase(ArrayBase&& other) noexcept
    : machine_(other.machine_), slot_(other.slot_) {
  other.machine_ = nullptr;
  if (machine_ != nullptr) machine_->reregister_array(slot_, this);
}

ArrayBase::~ArrayBase() {
  if (machine_ != nullptr) machine_->unregister_array(slot_);
}

}  // namespace detail

Machine::Machine() : Machine(Config{}) {}

Machine::Machine(Config cfg)
    : policy_(cfg.policy), processors_(cfg.processors) {}

Machine::~Machine() = default;

std::size_t Machine::register_array(detail::ArrayBase* a) {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    arrays_[slot] = a;
    return slot;
  }
  arrays_.push_back(a);
  return arrays_.size() - 1;
}

void Machine::reregister_array(std::size_t slot, detail::ArrayBase* a) {
  COPATH_DCHECK(slot < arrays_.size());
  arrays_[slot] = a;
}

void Machine::unregister_array(std::size_t slot) {
  COPATH_DCHECK(slot < arrays_.size());
  arrays_[slot] = nullptr;
  free_slots_.push_back(slot);
}

void Machine::add_cells(std::int64_t delta) {
  stats_.cells = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(stats_.cells) + delta);
}

void Machine::report_violation(const std::string& message) {
  if (violated_) return;
  violated_ = true;
  violation_message_ = message;
}

void Machine::commit_all() {
  for (detail::ArrayBase* a : arrays_) {
    if (a != nullptr) a->commit_pending(policy_);
  }
}

void Machine::throw_pending_violation() {
  if (!violated_) return;
  violated_ = false;
  throw PramViolation(std::move(violation_message_));
}

}  // namespace copath::pram
