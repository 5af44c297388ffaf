// A set of message ids stored as maximal runs of consecutive sequence
// numbers per origin.
//
// Every origin numbers its messages with a local counter, so the ids a
// dedup table sees from one origin are consecutive except where a
// restart jumps the sequence base (docs/PROTOCOL.md D6) or a crash lost
// a batch. Storing `[first, end)` runs instead of one hash node per id
// makes such a table cost one map node per origin in steady state, plus
// one per jump or hole: O(runs), not O(messages). Out-of-order arrivals
// open a run that merges with its neighbours once the gap fills.
//
// Lives in util/ because the broadcast layer (which must not include
// core/) and the ordering, recovery and store layers all use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace ibc {

class IdRuns {
 public:
  /// Adds the `count` consecutive ids `first, first+1, ...` of
  /// `first.origin`, merging with adjacent or overlapping runs. Returns
  /// false, and changes nothing, if `first` is already present.
  bool insert(MessageId first, std::uint64_t count = 1) {
    IBC_ASSERT_MSG(count >= 1, "a run holds at least one id");
    const std::uint64_t end = first.seq + count;
    IBC_ASSERT_MSG(end > first.seq, "run end overflows the sequence space");
    auto next = runs_.upper_bound(first);
    auto run = runs_.end();
    if (next != runs_.begin()) {
      const auto prev = std::prev(next);
      if (prev->first.origin == first.origin && prev->second >= first.seq) {
        if (prev->second > first.seq) return false;  // first is inside
        run = prev;  // prev ends exactly at first: extend it
      }
    }
    if (run == runs_.end()) {
      run = runs_.emplace_hint(next, first, end);
    } else if (run->second < end) {
      run->second = end;
    }
    // Absorb every later run of the same origin the new range reaches.
    while (next != runs_.end() && next->first.origin == first.origin &&
           next->first.seq <= run->second) {
      if (next->second > run->second) run->second = next->second;
      next = runs_.erase(next);
    }
    return true;
  }

  bool contains(const MessageId& id) const {
    auto it = runs_.upper_bound(id);
    if (it == runs_.begin()) return false;
    --it;
    return it->first.origin == id.origin && id.seq < it->second;
  }

  /// Number of maximal runs (not of ids).
  std::size_t size() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

  /// Runs in id order, as `(first id, end seq)` pairs; `end` is
  /// exclusive.
  auto begin() const { return runs_.begin(); }
  auto end() const { return runs_.end(); }

  friend bool operator==(const IdRuns&, const IdRuns&) = default;

 private:
  std::map<MessageId, std::uint64_t> runs_;  // first -> exclusive end seq
};

}  // namespace ibc
