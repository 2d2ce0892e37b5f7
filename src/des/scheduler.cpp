#include "des/scheduler.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace mvsim::des {

void Scheduler::throw_past_deadline(SimTime at) const {
  throw std::invalid_argument("Scheduler::schedule_at: time " + at.to_string() +
                              " is before now " + now_.to_string());
}

void Scheduler::throw_empty_callback() {
  throw std::invalid_argument("Scheduler::schedule_at: empty callback");
}

void Scheduler::throw_negative_delay(SimTime delay) {
  throw std::invalid_argument("Scheduler::schedule_after: negative delay " + delay.to_string());
}

bool Scheduler::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  const std::uint32_t id = static_cast<std::uint32_t>(handle.id_);
  EventRecord& rec = arena_[id];
  rec.live = false;
  rec.fn.reset();  // drop captures now
  ++rec.generation;  // invalidate any copies of the handle
  --live_events_;
  ++cancelled_;
  // Eager reclamation: pull the entry out of its bucket and recycle the
  // record immediately, so cancel-heavy workloads never grow the queue.
  if (wheel_.remove(rec.at.to_minutes(), id)) arena_.release(id);
  return true;
}

bool Scheduler::pending(EventHandle handle) const {
  if (!handle.valid() || handle.id_ > arena_.size()) return false;
  const EventRecord& rec = arena_[static_cast<std::uint32_t>(handle.id_)];
  return rec.live && rec.generation == handle.generation_;
}

void Scheduler::fire(EventRecord& rec, std::uint32_t id) {
  const EventType type = rec.type;
  rec.live = false;
  ++rec.generation;
  --live_events_;
  ++executed_;
  // The callback runs in place: record addresses are chunk-stable and
  // the slot is only recycled after the invoke, so the callback may
  // freely schedule (even growing the arena) or cancel other events.
  rec.fn();
  rec.fn.reset();
  arena_.release(id);
  if (timer_ != nullptr) stamp_event(type);
}

void Scheduler::stamp_event(EventType type) {
  const auto now = std::chrono::steady_clock::now();
  timer_->record_event(type, std::chrono::duration<double, std::micro>(now - stamp_).count());
  stamp_ = now;
}

bool Scheduler::fire_next(const SimTime* limit) {
  const CalendarQueue::Entry* top = wheel_.peek();
  if (top == nullptr) return false;
  const std::uint32_t id = top->id;
  EventRecord& rec = arena_[id];
  if (limit != nullptr && rec.at > *limit) return false;
  wheel_.pop_front();
  now_ = rec.at;  // the exact SimTime, not the wheel's double key
  fire(rec, id);
  return true;
}

void Scheduler::run_until(SimTime until) {
  if (!(until >= now_)) {
    throw std::invalid_argument("Scheduler::run_until: horizon " + until.to_string() +
                                " is before now " + now_.to_string());
  }
  seed_stamp();
  while (fire_next(&until)) {
  }
  now_ = until;
}

void Scheduler::run_to_quiescence() {
  seed_stamp();
  while (fire_next(nullptr)) {
  }
}

}  // namespace mvsim::des
