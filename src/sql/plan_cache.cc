#include "sql/plan_cache.h"

#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ovc::sql {

namespace {

metrics::Counter& CacheHits() {
  return OVC_METRIC_COUNTER("server.plan_cache.hits",
                            "Statements served from the shared plan cache");
}

metrics::Counter& CacheMisses() {
  return OVC_METRIC_COUNTER("server.plan_cache.misses",
                            "Statements bound fresh into the plan cache");
}

metrics::Counter& CacheEvictions() {
  return OVC_METRIC_COUNTER("server.plan_cache.evictions",
                            "Plan-cache entries evicted by LRU pressure");
}

}  // namespace

bool NormalizeSql(std::string_view sql, std::string* normalized) {
  SqlResult<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return false;
  normalized->clear();
  for (const Token& token : tokens.value()) {
    if (token.type == TokenType::kEnd) break;
    if (!normalized->empty()) normalized->push_back(' ');
    normalized->append(token.normalized);
  }
  return true;
}

PlanCache::PlanCache(size_t capacity, std::string options_fingerprint)
    : capacity_(capacity), options_fingerprint_(std::move(options_fingerprint)) {}

PlanCache::Lookup PlanCache::GetOrBind(std::string_view sql,
                                       const Catalog* catalog) {
  Lookup result;
  std::string normalized;
  if (!NormalizeSql(sql, &normalized)) {
    // Does not lex; fall through to Prepare for the real diagnostic.
    return result;
  }
  std::string key = options_fingerprint_;
  key.push_back('\n');
  key.append(normalized);

  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    result.entry = it->second.entry;
    result.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    CacheHits().Increment();
    return result;
  }

  // Miss: parse + bind under the lock (microseconds; see header).
  SqlResult<Statement> stmt = [&] {
    OVC_TRACE_SPAN("sql.parse");
    return ParseStatement(sql);
  }();
  if (!stmt.ok()) {
    result.has_error = true;
    result.error = stmt.error();
    return result;
  }
  if (stmt.value().explain) {
    // EXPLAIN [ANALYZE] output depends on per-execution planner state
    // (profiling); it stays on the uncached Prepare path.
    return result;
  }
  Binder binder(catalog);
  SqlResult<BoundQuery> bound = [&] {
    OVC_TRACE_SPAN("sql.bind");
    return binder.Bind(stmt.value().select);
  }();
  if (!bound.ok()) {
    result.has_error = true;
    result.error = bound.error();
    return result;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMisses().Increment();
  result.entry = std::make_shared<Entry>();
  result.entry->bound = std::move(bound).value();
  if (capacity_ == 0) return result;  // cache disabled: hand out, don't keep

  lru_.push_front(key);
  entries_[std::move(key)] = Slot{result.entry, lru_.begin()};
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheEvictions().Increment();
  }
  return result;
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace ovc::sql
