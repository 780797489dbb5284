#ifndef ANONSAFE_TESTS_TEST_ROWS_H_
#define ANONSAFE_TESTS_TEST_ROWS_H_

// Owning copies of database rows, so tests can compare and print them
// with gtest (`std::span` has no operator==).

#include <vector>

#include "data/database.h"

namespace anonsafe {

/// Row `t` of `db` as a Transaction.
inline Transaction Row(const Database& db, size_t t) {
  const std::span<const ItemId> row = db.transaction(t);
  return Transaction(row.begin(), row.end());
}

/// Every row of `db`, in order.
inline std::vector<Transaction> Rows(const Database& db) {
  std::vector<Transaction> rows;
  rows.reserve(db.num_transactions());
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    rows.push_back(Row(db, t));
  }
  return rows;
}

}  // namespace anonsafe

#endif  // ANONSAFE_TESTS_TEST_ROWS_H_
