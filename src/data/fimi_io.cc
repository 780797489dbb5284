#include "data/fimi_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>

namespace anonsafe {
namespace {

// Labels below this limit are remapped through a flat table indexed by
// label (at most 4 MiB); larger ones fall back to a hash map.
constexpr int64_t kDenseLabelLimit = int64_t{1} << 20;
constexpr ItemId kUnmapped = std::numeric_limits<ItemId>::max();

// ReadFimi pulls the stream in blocks of this size; a line split across
// a block boundary is carried over to the next block.
constexpr size_t kBlockBytes = size_t{1} << 20;

// The separators `std::istream >> int64_t` skips in the classic locale.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One FIMI parse, fed line by line. The token grammar is exactly that
/// of extracting `int64_t`s with `operator>>` from each line in turn:
/// an optional sign and decimal digits, read up to the first non-digit
/// (so "5+3" is two labels). A token that fails to extract is an error
/// unless it runs to the end of its line — a bare trailing sign or an
/// out-of-range trailing number ends the line silently, as it sets eof
/// on the line stream.
class FimiScanner {
 public:
  /// Parses every line of `text`; a final piece with no '\n' after it
  /// is a line too unless empty (std::getline's splitting).
  Status Feed(std::string_view text) {
    while (!text.empty()) {
      const size_t eol = text.find('\n');
      ANONSAFE_RETURN_IF_ERROR(ParseLine(text.substr(0, eol)));
      if (eol == std::string_view::npos) break;
      text.remove_prefix(eol + 1);
    }
    return Status::OK();
  }

  Result<LabeledDatabase> Finish() {
    LabeledDatabase out;
    out.database = Database(labels_.size());
    for (Transaction& t : transactions_) {
      out.database.AddTransactionUnchecked(std::move(t));
    }
    out.labels = std::move(labels_);
    return out;
  }

 private:
  Status ParseLine(std::string_view line) {
    ++line_no_;
    items_.clear();
    const char* p = line.data();
    const char* const end = p + line.size();
    for (;;) {
      while (p != end && IsSpace(*p)) ++p;
      if (p == end) break;
      const bool negative = *p == '-';
      if (*p == '+' || *p == '-') ++p;
      uint64_t magnitude = 0;
      const auto [next, ec] = std::from_chars(p, end, magnitude);
      if (next == p) {  // no digits after the optional sign
        if (p == end) break;
        return Malformed();
      }
      p = next;
      const uint64_t limit =
          negative ? uint64_t{1} << 63
                   : static_cast<uint64_t>(
                         std::numeric_limits<int64_t>::max());
      if (ec == std::errc::result_out_of_range || magnitude > limit) {
        if (p == end) break;
        return Malformed();
      }
      if (negative && magnitude != 0) {
        return Status::InvalidArgument("negative item label at line " +
                                       std::to_string(line_no_));
      }
      items_.push_back(Remap(static_cast<int64_t>(magnitude)));
    }
    if (!items_.empty()) {
      SortUnique();
      transactions_.emplace_back(items_.begin(), items_.end());
    }
    return Status::OK();
  }

  /// Sorts and deduplicates `items_`. When the line's ids span few
  /// 64-bit words, a bitmap orders them without comparisons; wide spans
  /// (sparse, RETAIL-like lines) fall back to std::sort, as a bitmap
  /// scan would then cost more than the sort. Ids are assigned in order
  /// of first appearance, so even a line whose labels are sorted in the
  /// file arrives shuffled; on dense data the bitmap makes the whole
  /// report measurably faster (docs/PERFORMANCE.md).
  void SortUnique() {
    const auto [lo, hi] = std::minmax_element(items_.begin(), items_.end());
    const size_t first_word = *lo / 64;
    const size_t words = *hi / 64 - first_word + 1;
    if (words > 2 * items_.size() + 8) {
      std::sort(items_.begin(), items_.end());
      items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
      return;
    }
    if (bits_.size() < words) bits_.resize(words, 0);
    for (ItemId x : items_) {
      bits_[x / 64 - first_word] |= uint64_t{1} << (x % 64);
    }
    items_.clear();
    for (size_t w = 0; w < words; ++w) {
      const ItemId base = static_cast<ItemId>((first_word + w) * 64);
      for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        items_.push_back(base + static_cast<ItemId>(std::countr_zero(word)));
      }
      bits_[w] = 0;
    }
  }

  Status Malformed() const {
    return Status::InvalidArgument("malformed token at line " +
                                   std::to_string(line_no_));
  }

  /// Dense id of `label`, assigned in order of first appearance.
  ItemId Remap(int64_t label) {
    ItemId* slot;
    if (label < kDenseLabelLimit) {
      const size_t index = static_cast<size_t>(label);
      if (index >= dense_.size()) {
        dense_.resize(std::min<size_t>(
                          std::max(index + 1, 2 * dense_.size()),
                          static_cast<size_t>(kDenseLabelLimit)),
                      kUnmapped);
      }
      slot = &dense_[index];
    } else {
      slot = &sparse_.try_emplace(label, kUnmapped).first->second;
    }
    if (*slot == kUnmapped) {
      *slot = static_cast<ItemId>(labels_.size());
      labels_.push_back(label);
    }
    return *slot;
  }

  size_t line_no_ = 0;
  std::vector<ItemId> dense_;
  std::unordered_map<int64_t, ItemId> sparse_;
  std::vector<int64_t> labels_;
  std::vector<ItemId> items_;
  std::vector<uint64_t> bits_;  // all zero between lines
  std::vector<Transaction> transactions_;
};

}  // namespace

Result<LabeledDatabase> ParseFimi(std::string_view text) {
  FimiScanner scanner;
  ANONSAFE_RETURN_IF_ERROR(scanner.Feed(text));
  return scanner.Finish();
}

Result<LabeledDatabase> ReadFimi(std::istream& in) {
  FimiScanner scanner;
  std::string buffer(kBlockBytes, '\0');
  size_t held = 0;  // bytes of an unfinished line at the buffer's front
  for (;;) {
    if (held == buffer.size()) buffer.resize(2 * buffer.size());
    in.read(buffer.data() + held,
            static_cast<std::streamsize>(buffer.size() - held));
    if (in.bad()) return Status::IOError("stream read failure");
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    const std::string_view fresh(buffer.data() + held, got);
    const size_t last_eol = fresh.rfind('\n');
    held += got;
    if (last_eol == std::string_view::npos) continue;
    const size_t complete = held - got + last_eol + 1;
    ANONSAFE_RETURN_IF_ERROR(
        scanner.Feed(std::string_view(buffer.data(), complete)));
    held -= complete;
    std::memmove(buffer.data(), buffer.data() + complete, held);
  }
  // The final line, when the input does not end in '\n'.
  ANONSAFE_RETURN_IF_ERROR(
      scanner.Feed(std::string_view(buffer.data(), held)));
  return scanner.Finish();
}

Result<LabeledDatabase> ReadFimiFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadFimi(in);
}

Status WriteFimi(const Database& db, std::ostream& out) {
  for (const Transaction& t : db.transactions()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i) out << ' ';
      out << t[i];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("stream write failure");
  return Status::OK();
}

Status WriteFimiFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteFimi(db, out);
}

}  // namespace anonsafe
