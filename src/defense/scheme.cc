#include "defense/scheme.h"

#include <algorithm>
#include <iterator>
#include <numeric>

namespace anonsafe {
namespace defense {

void DefenseParams::Set(const std::string& name, double value) {
  for (auto& [key, v] : values) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

const double* DefenseParams::Find(const std::string& name) const {
  for (const auto& [key, v] : values) {
    if (key == name) return &v;
  }
  return nullptr;
}

double DefenseParams::GetOr(const std::string& name, double fallback) const {
  const double* v = Find(name);
  return v == nullptr ? fallback : *v;
}

Result<double> DefenseParams::Get(const std::string& name) const {
  const double* v = Find(name);
  if (v == nullptr) {
    return Status::InvalidArgument("missing defense parameter '" + name +
                                   "'");
  }
  return *v;
}

std::string DefenseParams::ToString() const {
  std::string out;
  for (const auto& [key, v] : values) {
    if (!out.empty()) out += ",";
    out += key + "=" + json::NumberToString(v);
  }
  return out;
}

json::Value DefenseParams::ToJson() const {
  json::Value obj = json::Value::Object();
  for (const auto& [key, v] : values) obj.Set(key, json::Value(v));
  return obj;
}

Result<DefenseParams> DefenseParams::FromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("defense params must be a JSON object");
  }
  DefenseParams params;
  for (const auto& [key, member] : value.members()) {
    if (!member.is_number()) {
      return Status::InvalidArgument("defense param '" + key +
                                     "' must be a number");
    }
    params.Set(key, member.AsDouble());
  }
  return params;
}

json::Value DefensePlan::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("scheme", json::Value(scheme));
  obj.Set("params", params.ToJson());
  obj.Set("groups_before", json::Value(uint64_t{groups_before}));
  obj.Set("groups_after", json::Value(uint64_t{groups_after}));
  obj.Set("items_before", json::Value(uint64_t{items_before}));
  obj.Set("items_after", json::Value(uint64_t{items_after}));
  obj.Set("l1_distortion", json::Value(uint64_t{l1_distortion}));
  obj.Set("relative_distortion", json::Value(relative_distortion));
  obj.Set("merged_gap", json::Value(merged_gap));
  obj.Set("suppressed_items", json::Value(uint64_t{suppressed.size()}));
  obj.Set("oe_before", json::Value(oe_before));
  obj.Set("oe_after", json::Value(oe_after));
  obj.Set("occurrence_loss", json::Value(occurrence_loss));
  return obj;
}

Database WriteEdits(const Database& db, const DefenseEdits& edits) {
  // Regroup the edits by row (a counting sort): row t's toggled items
  // end up ascending in toggled[first[t], first[t+1]).
  const size_t n = edits.first.size() - 1;
  const size_t m = db.num_transactions();
  std::vector<size_t> first(m + 1, 0);
  for (ItemIndex::RowId t : edits.rows) ++first[t];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<ItemId> toggled(edits.rows.size());
  for (ItemId x = n; x-- > 0;) {
    for (size_t e = edits.first[x]; e < edits.first[x + 1]; ++e) {
      toggled[--first[edits.rows[e]]] = x;
    }
  }

  Database out(db.num_items());
  out.Reserve(edits.num_transactions,
              std::accumulate(edits.supports.begin(), edits.supports.end(),
                              size_t{0}));
  Transaction row;
  for (size_t t = 0; t < m; ++t) {
    const std::span<const ItemId> in = db.transaction(t);
    row.clear();
    std::set_symmetric_difference(in.begin(), in.end(),
                                  toggled.begin() + first[t],
                                  toggled.begin() + first[t + 1],
                                  std::back_inserter(row));
    if (!row.empty()) out.AddTransactionUnchecked(row);
  }
  return out;
}

Result<DefenseEdits> DefenseScheme::Decide(const ItemIndex& index,
                                           const DefensePlan& plan,
                                           Rng* rng) const {
  if (plan.scheme != name()) {
    return Status::InvalidArgument("plan was produced by scheme '" +
                                   plan.scheme + "', not '" + name() + "'");
  }
  return DecideEdits(index, plan, rng);
}

Result<Database> DefenseScheme::Apply(const Database& db,
                                      const DefensePlan& plan,
                                      Rng* rng) const {
  ANONSAFE_ASSIGN_OR_RETURN(DefenseEdits edits,
                            Decide(ItemIndex::Build(db), plan, rng));
  return WriteEdits(db, edits);
}

const std::vector<const DefenseScheme*>& DefenseScheme::All() {
  // Built on first use, fixed order so every sweep enumerates
  // candidates identically. Function-local statics (not leaked heap
  // blocks) so LeakSanitizer stays quiet across the test suite.
  static const std::vector<std::unique_ptr<DefenseScheme>> owner = [] {
    std::vector<std::unique_ptr<DefenseScheme>> v;
    v.push_back(internal::MakeKAnonymityScheme());
    v.push_back(internal::MakeGroupMergeScheme());
    v.push_back(internal::MakeSuppressionScheme());
    return v;
  }();
  static const std::vector<const DefenseScheme*> view = [] {
    std::vector<const DefenseScheme*> v;
    v.reserve(owner.size());
    for (const auto& scheme : owner) v.push_back(scheme.get());
    return v;
  }();
  return view;
}

const DefenseScheme* DefenseScheme::Find(const std::string& name) {
  for (const DefenseScheme* scheme : All()) {
    if (name == scheme->name()) return scheme;
  }
  return nullptr;
}

namespace internal {

Status CheckAllowedParams(const DefenseParams& params,
                          const std::vector<std::string>& allowed,
                          const char* scheme) {
  for (const auto& [key, value] : params.values) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument("unknown parameter '" + key +
                                     "' for defense scheme '" + scheme +
                                     "'");
    }
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace defense
}  // namespace anonsafe
