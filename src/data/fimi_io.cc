#include "data/fimi_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <unordered_map>

#include "obs/scoped_timer.h"

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
  /// Reserves the flat item array for `max_items` ids (0 when the
  /// caller cannot bound them), so it does not regrow during the parse.
  /// The bound is only a hint: one too large to allocate is dropped.
  explicit FimiScanner(size_t max_items) {
    try {
      database_.Reserve(0, max_items);
    } catch (const std::bad_alloc&) {
    }
  }

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
    return LabeledDatabase{std::move(database_), std::move(labels_)};
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
      database_.ExtendDomain(labels_.size());
      database_.AddTransactionUnchecked(items_);
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

  obs::ScopedTimer timer_{"data.read_fimi"};
  size_t line_no_ = 0;
  std::vector<ItemId> dense_;
  std::unordered_map<int64_t, ItemId> sparse_;
  std::vector<int64_t> labels_;
  std::vector<ItemId> items_;
  std::vector<uint64_t> bits_;  // all zero between lines
  Database database_{0};
};

/// An upper bound on the ids in `text`: its runs of digits. Written
/// without a loop-carried flag so that the compiler vectorizes it.
size_t CountDigitRuns(std::string_view text) {
  const auto digit = [&](size_t i) -> size_t {
    return static_cast<unsigned char>(text[i] - '0') < 10;
  };
  size_t runs = text.empty() ? 0 : digit(0);
  for (size_t i = 1; i < text.size(); ++i) {
    runs += digit(i) & (digit(i - 1) ^ 1);
  }
  return runs;
}

/// Scans `in` block by block; `max_items` (0 if unknown) sizes the parse.
Result<LabeledDatabase> ScanStream(std::istream& in, size_t max_items) {
  FimiScanner scanner(max_items);
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

}  // namespace

Result<LabeledDatabase> ParseFimi(std::string_view text) {
  FimiScanner scanner(CountDigitRuns(text));
  ANONSAFE_RETURN_IF_ERROR(scanner.Feed(text));
  return scanner.Finish();
}

Result<LabeledDatabase> ReadFimi(std::istream& in) {
  return ScanStream(in, 0);
}

Result<LabeledDatabase> ReadFimiFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  // An id takes a digit and a separator, so half the file size bounds
  // the ids. The pages past the ids read are never touched, so they do
  // not count against the resident set.
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ScanStream(in, ec ? 0 : static_cast<size_t>(bytes / 2 + 1));
}

Status WriteFimi(const Database& db, std::ostream& out) {
  for (size_t row = 0; row < db.num_transactions(); ++row) {
    const std::span<const ItemId> t = db.transaction(row);
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
