#include "des/calendar_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mvsim::des {

namespace {
/// Strict (at, seq) order — the scheduler's determinism contract. A
/// function object (not a function pointer) so upper_bound and the
/// insertion pass inline the comparison.
struct EntryEarlier {
  bool operator()(const CalendarQueue::Entry& a, const CalendarQueue::Entry& b) const {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
};
constexpr EntryEarlier entry_earlier{};

/// Sorts [first, first + n) by (at, seq); linear when the run is
/// nearly sorted, which is what the counting pass hands it.
void insertion_sort(CalendarQueue::Entry* first, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    if (!entry_earlier(first[i], first[i - 1])) continue;
    const CalendarQueue::Entry moving = first[i];
    std::size_t j = i;
    do {
      first[j] = first[j - 1];
      --j;
    } while (j > 0 && entry_earlier(moving, first[j - 1]));
    first[j] = moving;
  }
}
}  // namespace

CalendarQueue::CalendarQueue()
    : heads_(kMinBuckets, 0), mask_(kMinBuckets - 1), bucket_grow_limit_(kMinBuckets * 2) {
  pool_.emplace_back();  // index 0 is the null node
}

std::uint32_t CalendarQueue::alloc_node() {
  if (!free_nodes_.empty()) {
    const std::uint32_t node = free_nodes_.back();
    free_nodes_.pop_back();
    return node;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void CalendarQueue::link(std::uint64_t abs, double at, std::uint64_t seq, std::uint32_t id) {
  const std::uint32_t node = alloc_node();
  Node& n = pool_[node];
  n.at = at;
  n.seq = seq;
  n.abs_bucket = abs;
  n.id = id;
  std::uint32_t& head = heads_[static_cast<std::size_t>(abs & mask_)];
  n.next = head;
  head = node;
}

void CalendarQueue::insert_overflow(double at, std::uint64_t seq, std::uint32_t id) {
  const std::uint32_t node = alloc_node();
  Node& n = pool_[node];
  n.at = at;
  n.seq = seq;
  n.abs_bucket = 0;
  n.id = id;
  n.next = overflow_head_;
  overflow_head_ = node;
  ++overflow_size_;
}

void CalendarQueue::insert_into_slice(double at, std::uint64_t seq, std::uint32_t id,
                                      std::uint64_t abs) {
  if (abs < slice_abs_) {
    // Earlier than the slice being served (run_until() declined the
    // slice and the clock rests before it): put the unserved tail back
    // into its bucket and fall through to a plain insert.
    abandon_slice();
    if (abs < current_abs_) current_abs_ = abs;
    link(abs, at, seq, id);
    ++calendar_size_;
    if (calendar_size_ > bucket_grow_limit_) grow();
    return;
  }
  // Same slice as the serving buffer: merge into the sorted unserved
  // tail. A new entry's seq is the largest so far, so it can never
  // land before slice_pos_.
  const Entry entry{at, seq, id};
  const auto begin = slice_.begin() + static_cast<std::ptrdiff_t>(slice_pos_);
  slice_.insert(std::upper_bound(begin, slice_.end(), entry, entry_earlier), entry);
  ++calendar_size_;
}

void CalendarQueue::unlink(std::uint32_t* head, std::uint32_t prev, std::uint32_t node) {
  if (prev == 0) {
    *head = pool_[node].next;
  } else {
    pool_[prev].next = pool_[node].next;
  }
  free_node(node);
}

bool CalendarQueue::remove_from_list(std::uint32_t* head, std::uint32_t id) {
  std::uint32_t prev = 0;
  for (std::uint32_t node = *head; node != 0; node = pool_[node].next) {
    if (pool_[node].id == id) {
      unlink(head, prev, node);
      return true;
    }
    prev = node;
  }
  return false;
}

bool CalendarQueue::remove(double at, std::uint32_t id) {
  if (!in_calendar_range(at)) {
    if (!remove_from_list(&overflow_head_, id)) return false;
    --overflow_size_;
    --size_;
    cursor_valid_ = false;
    return true;
  }
  const std::uint64_t abs = abs_bucket_of(at);
  if (slice_active_ && abs == slice_abs_) {
    for (std::size_t i = slice_pos_; i < slice_.size(); ++i) {
      if (slice_[i].id == id) {
        slice_.erase(slice_.begin() + static_cast<std::ptrdiff_t>(i));
        --calendar_size_;
        --size_;
        return true;
      }
    }
    return false;
  }
  std::uint32_t* head = &heads_[static_cast<std::size_t>(abs & mask_)];
  if (!remove_from_list(head, id)) return false;
  --calendar_size_;
  --size_;
  cursor_valid_ = false;
  return true;
}

void CalendarQueue::finish_slice() {
  slice_.clear();
  slice_pos_ = 0;
  slice_active_ = false;
  ++current_abs_;  // everything in the served slice is gone
}

void CalendarQueue::abandon_slice() {
  for (std::size_t i = slice_pos_; i < slice_.size(); ++i) {
    link(slice_abs_, slice_[i].at, slice_[i].seq, slice_[i].id);
  }
  slice_.clear();
  slice_pos_ = 0;
  slice_active_ = false;
}

const CalendarQueue::Entry* CalendarQueue::peek_slow() {
  if (cursor_valid_) return &cursor_entry_;
  if (size_ == 0) return nullptr;
  if (calendar_size_ == 0) return scan_overflow();
  std::size_t probes = 0;
  for (;;) {
    std::uint32_t* head = &heads_[static_cast<std::size_t>(current_abs_ & mask_)];
    // Extract every entry of the current slice in one pass. The pool
    // pointer is hoisted because the push_backs below cannot alias it.
    Node* const pool = pool_.data();
    std::uint32_t prev = 0;
    std::uint32_t node = *head;
    while (node != 0) {
      Node& n = pool[node];
      const std::uint32_t next = n.next;
      if (n.abs_bucket == current_abs_) {
        slice_.push_back(Entry{n.at, n.seq, n.id});
        if (prev == 0) {
          *head = next;
        } else {
          pool[prev].next = next;
        }
        free_nodes_.push_back(node);
      } else {
        prev = node;
      }
      node = next;
    }
    if (!slice_.empty()) {
      order_slice();
      slice_active_ = true;
      slice_abs_ = current_abs_;
      slice_pos_ = 0;
      return &slice_[0];
    }
    ++current_abs_;
    if (++probes >= heads_.size()) {
      // A full rotation was empty: the pending entries are far in the
      // future. Jump the cursor straight to the earliest occupied
      // slice instead of spinning through empty ones.
      std::uint64_t min_abs = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t h : heads_) {
        for (std::uint32_t walk = h; walk != 0; walk = pool_[walk].next) {
          min_abs = std::min(min_abs, pool_[walk].abs_bucket);
        }
      }
      current_abs_ = min_abs;  // calendar_size_ > 0 guarantees a hit
      probes = 0;
    }
  }
}

void CalendarQueue::order_slice() {
  const std::size_t n = slice_.size();
  if (n <= kInsertionSortMax) {
    // Extraction is LIFO, so reversing puts same-instant entries back
    // in seq order before the insertion pass.
    std::reverse(slice_.begin(), slice_.end());
    insertion_sort(slice_.data(), n);
    return;
  }
  // Counting pass: sub-slice k of n holds the entries whose offset into
  // the slice, (at * inv_width_ - current_abs_) * n, lies in [k, k + 1).
  // It is computed as at * scale - base with one multiply per entry;
  // that rounding can put an offset on n or a hair below 0, hence the
  // clamp. The keys only need to be monotone in `at`: sub-slices come
  // out in time order, and the insertion pass repairs the (at, seq)
  // order inside each one exactly, whatever the rounding did.
  const double count = static_cast<double>(n);
  const double scale = inv_width_ * count;
  const double base = static_cast<double>(current_abs_) * count;
  const double top = count - 1.0;
  sub_key_.resize(n);
  sub_start_.resize(n + 1);
  std::fill(sub_start_.begin(), sub_start_.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const double offset = std::clamp(slice_[i].at * scale - base, 0.0, top);
    const auto key = static_cast<std::uint32_t>(offset);
    sub_key_[i] = key;
    ++sub_start_[key + 1];
  }
  for (std::size_t k = 1; k <= n; ++k) sub_start_[k] += sub_start_[k - 1];
  // Scatter walking the extraction backwards. Bucket chains list a
  // slice's entries newest first (link() pushes, rebuild() keeps chain
  // order), so this visits same-instant entries in seq order and the
  // stable scatter keeps them there: the insertion pass only moves
  // entries whose times are out of order within a sub-slice.
  scatter_.resize(n);
  for (std::size_t i = n; i-- > 0;) scatter_[sub_start_[sub_key_[i]]++] = slice_[i];
  slice_.swap(scatter_);
  insertion_sort(slice_.data(), n);
}

const CalendarQueue::Entry* CalendarQueue::scan_overflow() {
  std::uint32_t best = 0;
  std::uint32_t best_prev = 0;
  std::uint32_t prev = 0;
  for (std::uint32_t node = overflow_head_; node != 0; node = pool_[node].next) {
    const Node& n = pool_[node];
    if (best == 0 || n.at < pool_[best].at ||
        (n.at == pool_[best].at && n.seq < pool_[best].seq)) {
      best = node;
      best_prev = prev;
    }
    prev = node;
  }
  if (best == 0) return nullptr;
  cursor_valid_ = true;
  cursor_prev_ = best_prev;
  cursor_node_ = best;
  const Node& n = pool_[best];
  cursor_entry_ = Entry{n.at, n.seq, n.id};
  return &cursor_entry_;
}

void CalendarQueue::pop_front_slow() {
  if (peek() == nullptr) return;
  if (slice_active_ && slice_pos_ < slice_.size()) {
    ++slice_pos_;
    --calendar_size_;
    --size_;
    return;
  }
  // peek() resolved to the overflow cache.
  unlink(&overflow_head_, cursor_prev_, cursor_node_);
  --overflow_size_;
  --size_;
  cursor_valid_ = false;
}

void CalendarQueue::grow() {
  std::size_t target = heads_.size() * 4;
  if (target > kMaxBuckets) target = kMaxBuckets;
  if (target <= heads_.size()) {
    // At the cap: stop re-triggering; buckets just get denser.
    bucket_grow_limit_ = std::numeric_limits<std::size_t>::max();
    return;
  }
  rebuild(target);
}

void CalendarQueue::rebuild(std::size_t new_bucket_count) {
  ++rebuilds_;
  cursor_valid_ = false;

  // Collect every pending entry: bucket lists, the overflow list, and
  // the unserved tail of the serving buffer (backwards, so it reads like
  // a LIFO chain). The relink below walks the collection backwards, so
  // entries that shared a chain keep their relative order: a slice's
  // same-instant entries stay in reverse seq order, which is what lets
  // order_slice() serve their ties without moving them.
  rebuild_scratch_.clear();
  rebuild_scratch_.reserve(size_);
  for (std::uint32_t h : heads_) {
    for (std::uint32_t node = h; node != 0; node = pool_[node].next) {
      const Node& n = pool_[node];
      rebuild_scratch_.push_back(Entry{n.at, n.seq, n.id});
    }
  }
  for (std::uint32_t node = overflow_head_; node != 0; node = pool_[node].next) {
    const Node& n = pool_[node];
    rebuild_scratch_.push_back(Entry{n.at, n.seq, n.id});
  }
  if (slice_active_) {
    for (std::size_t i = slice_.size(); i-- > slice_pos_;) {
      rebuild_scratch_.push_back(slice_[i]);
    }
    slice_.clear();
    slice_pos_ = 0;
    slice_active_ = false;
  }

  // Re-fit the slice width so the population spreads at roughly two
  // entries per slice (Brown's heuristic). Only finite times
  // participate; a degenerate span (a same-instant storm) keeps the
  // old width.
  double min_at = std::numeric_limits<double>::infinity();
  double max_at = -std::numeric_limits<double>::infinity();
  std::size_t finite = 0;
  for (const Entry& entry : rebuild_scratch_) {
    if (!std::isfinite(entry.at)) continue;
    ++finite;
    min_at = std::min(min_at, entry.at);
    max_at = std::max(max_at, entry.at);
  }
  if (finite >= 2 && max_at > min_at) {
    width_ = std::max((max_at - min_at) * 2.0 / static_cast<double>(finite), 1e-9);
    inv_width_ = 1.0 / width_;
  }

  // Reset the node pool wholesale (every node is relinked below; the
  // pool keeps its capacity, so this allocates nothing) and relink
  // under the new geometry. Overflow entries are reclassified too:
  // membership must always reflect the *current* width, or a shrinking
  // width could hide an early entry in overflow while later calendar
  // entries pop first.
  pool_.resize(1);
  free_nodes_.clear();
  heads_.assign(new_bucket_count, 0);
  mask_ = new_bucket_count - 1;
  bucket_grow_limit_ = new_bucket_count * 2;
  overflow_head_ = 0;
  overflow_size_ = 0;
  calendar_size_ = 0;
  for (auto it = rebuild_scratch_.rbegin(); it != rebuild_scratch_.rend(); ++it) {
    const Entry& entry = *it;
    if (!in_calendar_range(entry.at)) {
      insert_overflow(entry.at, entry.seq, entry.id);
      continue;
    }
    link(abs_bucket_of(entry.at), entry.at, entry.seq, entry.id);
    ++calendar_size_;
  }
  current_abs_ = finite > 0 ? abs_bucket_of(min_at) : 0;
}

}  // namespace mvsim::des
