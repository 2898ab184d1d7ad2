#include "elog/v2_fold.hpp"

#include <exception>
#include <limits>
#include <unordered_set>
#include <utility>

#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "support/errors.hpp"

namespace st::elog {

namespace {
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
}  // namespace

/// A fold task's reader: decodes one case at a time into a reused
/// buffer, with the pair index of each of its events — kept case k of
/// the container, or of `selection` when there is one.
class ContainerCases::PairCursor final : public pipeline::CaseSource::Cursor {
 public:
  PairCursor(const ContainerCases& source, const Selection* selection)
      : source_(source), selection_(selection) {}

  const model::Case& load(std::size_t k) override {
    if (selection_ == nullptr) {
      source_.mapped_->case_at(source_.cases_[k], case_, pairs_);
    } else {
      load_selected(*source_.mapped_, *selection_, k, case_, pairs_);
    }
    slots_.clear();
    slots_.reserve(pairs_.size());
    for (const std::uint64_t pair : pairs_) {
      const auto it = source_.pair_index_.find(pair);
      if (it == source_.pair_index_.end()) {
        throw LogicError("ContainerCases: a case decodes to a pair its scan did not see");
      }
      slots_.push_back(it->second);
    }
    return case_;
  }

  void map(const model::Mapping& f, model::MappedCase& out) override {
    const Table* table = source_.table_of(f);
    if (table == nullptr) throw LogicError("ContainerCases: no dictionary for this mapping");
    out.activities.clear();
    out.events.clear();
    out.activities.reserve(slots_.size());
    out.events.reserve(slots_.size());
    for (std::uint32_t e = 0; e < slots_.size(); ++e) {
      if (const std::uint32_t id = table->ids[slots_[e]]; id != kUnmapped) {
        out.activities.push_back(id);
        out.events.push_back(e);
      }
    }
  }

 private:
  const ContainerCases& source_;
  const Selection* selection_;
  model::Case case_;
  std::vector<std::uint64_t> pairs_;
  std::vector<std::uint32_t> slots_;
};

ContainerCases::ContainerCases(std::shared_ptr<MappedElog> mapped,
                               std::span<const model::Mapping* const> mappings,
                               const RunPolicy& policy, ThreadPool* pool)
    : mapped_(std::move(mapped)) {
  // Each case is scanned into its own slot; a failure is kept, not
  // thrown, so the pass below meets every case in case order whatever
  // the workers' schedule (read_event_log_v2's rule).
  const std::size_t n = mapped_->case_count();
  std::vector<std::vector<std::uint64_t>> pairs_of(n);
  std::vector<std::exception_ptr> errors(n);
  const auto scan = [&](std::size_t i) {
    try {
      std::vector<std::uint64_t>& pairs = pairs_of[i];
      mapped_->check_case(i, pairs);
      std::unordered_set<std::uint64_t> seen;
      std::erase_if(pairs, [&](std::uint64_t pair) { return !seen.insert(pair).second; });
      pairs.shrink_to_fit();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (pool != nullptr) {
    parallel_for(*pool, 0, n, scan);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      scan(i);
      if (errors[i] && !policy.keep_going) break;  // fail fast: touch nothing more
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) {
      warnings_.push_back(quarantine_warning(*mapped_, i, errors[i], policy));
      continue;
    }
    cases_.push_back(i);
    events_ += mapped_->case_rows(i);
    for (const std::uint64_t pair : pairs_of[i]) {
      if (pair_index_.try_emplace(pair, static_cast<std::uint32_t>(pairs_.size())).second) {
        pairs_.push_back(pair);
      }
    }
  }

  // f once per distinct pair. A kCallFp mapping reads only an event's
  // call and fp, so an event holding just those two is enough.
  for (const model::Mapping* f : mappings) {
    if (f->key() != model::Mapping::Key::kCallFp || table_of(*f) != nullptr) continue;
    Table& table = tables_.emplace_back();
    table.f = f;
    table.dict = std::make_unique<model::ActivityDict>();
    table.ids.reserve(pairs_.size());
    model::Event e;
    for (const std::uint64_t pair : pairs_) {
      e.call = mapped_->pool_string(static_cast<std::uint32_t>(pair >> 32));
      e.fp = mapped_->pool_string(static_cast<std::uint32_t>(pair));
      auto a = (*f)(e);
      table.ids.push_back(a ? table.dict->intern(std::move(*a)) : kUnmapped);
    }
  }
}

const ContainerCases::Table* ContainerCases::table_of(const model::Mapping& f) const {
  for (const Table& t : tables_) {
    if (t.f == &f) return &t;
  }
  return nullptr;
}

const model::ActivityDict* ContainerCases::dictionary(const model::Mapping& f) const {
  const Table* table = table_of(f);
  return table == nullptr ? nullptr : table->dict.get();
}

std::unique_ptr<pipeline::CaseSource::Cursor> ContainerCases::cursor() const {
  return std::make_unique<PairCursor>(*this, nullptr);
}

ContainerCases::Selected ContainerCases::select(const model::Query& q) const {
  return Selected(*this, elog::select(*mapped_, q, cases_));
}

std::unique_ptr<pipeline::CaseSource::Cursor> ContainerCases::Selected::cursor() const {
  return std::make_unique<PairCursor>(container_, &selection_);
}

}  // namespace st::elog
