// librock — data/transaction.h
//
// A transaction is a set of items (paper §3.1.1: "The database consists of a
// set of transactions, each of which is a set of items"). Stored as a sorted,
// deduplicated vector of ItemId so set operations are linear merges.

#ifndef ROCK_DATA_TRANSACTION_H_
#define ROCK_DATA_TRANSACTION_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "data/dictionary.h"

namespace rock {

/// An item set; always sorted and unique.
class Transaction {
 public:
  Transaction() = default;

  /// Builds from arbitrary item ids; sorts and deduplicates.
  explicit Transaction(std::vector<ItemId> items);

  /// Convenience literal constructor: Transaction({1, 2, 3}).
  Transaction(std::initializer_list<ItemId> items);

  /// Replaces the items with the `n` ids stored at `bytes` (native byte
  /// order, any alignment), reusing this transaction's storage. The ids are
  /// checked, not sorted: unless they are strictly ascending this returns
  /// false and leaves the transaction empty. The store reader decodes rows
  /// through this, since its writers only ever store sorted, unique rows.
  bool AssignSortedUnique(const void* bytes, size_t n);

  /// Number of distinct items.
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// The sorted item ids.
  const std::vector<ItemId>& items() const { return items_; }

  /// True iff the transaction contains `item` (binary search).
  bool Contains(ItemId item) const;

  bool operator==(const Transaction& other) const = default;

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::vector<ItemId> items_;
};

/// |T1 ∩ T2| via linear merge of the sorted item vectors.
size_t IntersectionSize(const Transaction& a, const Transaction& b);

/// |T1 ∪ T2| = |T1| + |T2| − |T1 ∩ T2|.
size_t UnionSize(const Transaction& a, const Transaction& b);

}  // namespace rock

#endif  // ROCK_DATA_TRANSACTION_H_
