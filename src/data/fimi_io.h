#ifndef ANONSAFE_DATA_FIMI_IO_H_
#define ANONSAFE_DATA_FIMI_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "data/database.h"
#include "util/result.h"

namespace anonsafe {

/// \brief A database together with the mapping from dense ids back to the
/// sparse labels used in the source file.
///
/// FIMI/UCI benchmark files identify items by arbitrary non-negative
/// integers (e.g. RETAIL uses ids up to ~16469 with holes). On load, labels
/// are remapped to the dense range `{0, ..., n-1}` in order of first
/// appearance; `labels[i]` is the original integer of dense item `i`.
struct LabeledDatabase {
  Database database{0};
  std::vector<int64_t> labels;
};

/// \brief Parses a FIMI-format transaction stream: one transaction per
/// line, whitespace-separated non-negative integer item labels. Blank
/// lines are skipped; duplicate items within a line are collapsed.
///
/// The stream is scanned in fixed-size blocks, so memory holds the
/// parsed database but never the whole text. Fails with IOError on
/// unreadable input and InvalidArgument on malformed tokens or negative
/// labels (docs/FORMATS.md has the exact token grammar).
Result<LabeledDatabase> ReadFimi(std::istream& in);

/// \brief `ReadFimi` over text already in memory, parsed in place by the
/// same scanner (same grammar, results and error messages).
Result<LabeledDatabase> ParseFimi(std::string_view text);

/// \brief Reads a FIMI file from disk (see `ReadFimi`).
Result<LabeledDatabase> ReadFimiFile(const std::string& path);

/// \brief Writes a database in FIMI format using dense ids as labels.
Status WriteFimi(const Database& db, std::ostream& out);

/// \brief Writes a database to a FIMI file on disk.
Status WriteFimiFile(const Database& db, const std::string& path);

}  // namespace anonsafe

#endif  // ANONSAFE_DATA_FIMI_IO_H_
