#include "data/transaction.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace rock {

Transaction::Transaction(std::vector<ItemId> items) : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

Transaction::Transaction(std::initializer_list<ItemId> items)
    : Transaction(std::vector<ItemId>(items)) {}

bool Transaction::AssignSortedUnique(const void* bytes, size_t n) {
  items_.resize(n);
  if (n > 0) std::memcpy(items_.data(), bytes, n * sizeof(ItemId));
  if (std::adjacent_find(items_.begin(), items_.end(),
                         std::greater_equal<ItemId>()) != items_.end()) {
    items_.clear();
    return false;
  }
  return true;
}

bool Transaction::Contains(ItemId item) const {
  return std::binary_search(items_.begin(), items_.end(), item);
}

size_t IntersectionSize(const Transaction& a, const Transaction& b) {
  size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

size_t UnionSize(const Transaction& a, const Transaction& b) {
  return a.size() + b.size() - IntersectionSize(a, b);
}

}  // namespace rock
