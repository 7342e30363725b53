#include "workloads.h"

#include <algorithm>
#include <set>

#include "row/generator.h"
#include "row/row_buffer.h"

namespace perfbench {

namespace {

using Table = std::shared_ptr<const Rows>;

// Orders whole rows (lexicographic on every column, which is what each
// statement's ORDER BY amounts to) and applies LIMIT.
Rows SortedAnswer(Rows rows, uint64_t limit = UINT64_MAX) {
  std::sort(rows.begin(), rows.end());
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

std::string Str(uint64_t v) { return std::to_string(v); }

std::vector<std::string> Columns(std::initializer_list<const char*> names) {
  return std::vector<std::string>(names.begin(), names.end());
}

// Per-workload table seeds derive from the benchmark seed so every seed
// gives different data of the same shape.
uint64_t TableSeed(uint64_t seed, uint64_t table) {
  return seed * 16 + table + 1;
}

// Zipf(s = 1) over `domain` ranks; ranks map to literals through a seeded
// permutation so the hot literals differ per seed.
void InitZipf(Workload* w, uint64_t domain, uint64_t seed) {
  w->zipf_domain = domain;
  double total = 0;
  for (uint64_t r = 1; r <= domain; ++r) total += 1.0 / static_cast<double>(r);
  double cumulative = 0;
  for (uint64_t r = 1; r <= domain; ++r) {
    cumulative += 1.0 / static_cast<double>(r) / total;
    w->zipf_cdf.push_back(cumulative);
  }
  w->zipf_cdf.back() = 1.0;
  w->zipf_values.resize(domain);
  for (uint64_t i = 0; i < domain; ++i) w->zipf_values[i] = i;
  ovc::Rng rng(seed ^ 0x5eedULL);
  for (uint64_t i = domain - 1; i > 0; --i) {
    std::swap(w->zipf_values[i], w->zipf_values[rng.Uniform(i + 1)]);
  }
}

uint64_t ZipfLiteral(const Workload& w, ovc::Rng* rng) {
  const double u =
      static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
  const size_t rank = static_cast<size_t>(
      std::lower_bound(w.zipf_cdf.begin(), w.zipf_cdf.end(), u) -
      w.zipf_cdf.begin());
  return w.zipf_values[std::min(rank, w.zipf_values.size() - 1)];
}

// point_mix: short statements over a pre-sorted coded table, so the
// per-statement fixed path (wire, plan cache, parse+bind, admission, plan
// instantiation) does almost all the work.
std::unique_ptr<Workload> PointMix(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "point_mix";
  w->clients = 4;
  w->max_queries = 2;
  w->workers = 1;
  w->tail_percentile = 0.99;
  w->tables = {
      {"pm", Columns({"a", "b", "c"}), 3, 20000, 1000, TableSeed(seed, 0),
       true},
      {"pd", Columns({"a", "d"}), 1, 1000, 1000, TableSeed(seed, 1), true},
  };
  // The answers of all 4 x 1000 statements are computed up front, so the
  // reference works from one std::sort-ed copy of pm and looks up each
  // literal's rows by binary search.
  Rows sorted_pm = w->tables[0].Generate();
  std::sort(sorted_pm.begin(), sorted_pm.end());
  const Table pm = std::make_shared<Rows>(std::move(sorted_pm));
  const Table pd = std::make_shared<Rows>(w->tables[1].Generate());
  const uint64_t pm_rows = w->tables[0].rows;
  const uint64_t pd_rows = w->tables[1].rows;
  // Rows of pm with a == x (or a >= x when `at_least`), in sorted order.
  const auto rows_of = [pm](uint64_t x, bool at_least) {
    const auto first_a = [](const Row& r, uint64_t v) { return r[0] < v; };
    const auto begin =
        std::lower_bound(pm->begin(), pm->end(), x, first_a);
    const auto end = at_least ? pm->end()
                              : std::lower_bound(begin, pm->end(), x + 1,
                                                 first_a);
    return Rows(begin, end);
  };

  w->templates.push_back(
      {"filter",
       [](uint64_t x) {
         return "SELECT a, b, c FROM pm WHERE a = " + Str(x) +
                " ORDER BY a, b, c";
       },
       [rows_of](uint64_t x) { return SortedAnswer(rows_of(x, false)); },
       pm_rows});
  w->templates.push_back(
      {"limit",
       [](uint64_t x) {
         return "SELECT a, b, c FROM pm WHERE a >= " + Str(x) +
                " ORDER BY a, b, c LIMIT 20";
       },
       [rows_of](uint64_t x) { return SortedAnswer(rows_of(x, true), 20); },
       pm_rows});
  w->templates.push_back(
      {"join",
       [](uint64_t x) {
         return "SELECT pm.a, pm.b, pd.d FROM pm JOIN pd ON pm.a = pd.a "
                "WHERE pm.a = " +
                Str(x) + " ORDER BY pm.a, pm.b, pd.d";
       },
       [rows_of, pd](uint64_t x) {
         const Rows matches = rows_of(x, false);
         Rows out;
         for (const Row& d : *pd) {
           if (d[0] != x) continue;
           for (const Row& r : matches) out.push_back({r[0], r[1], d[1]});
         }
         return SortedAnswer(std::move(out));
       },
       pm_rows + pd_rows});
  w->templates.push_back(
      {"group",
       [](uint64_t x) {
         return "SELECT a, b, COUNT(*) AS n FROM pm WHERE a = " + Str(x) +
                " GROUP BY a, b ORDER BY a, b";
       },
       [rows_of](uint64_t x) {
         std::map<std::pair<uint64_t, uint64_t>, uint64_t> groups;
         for (const Row& r : rows_of(x, false)) ++groups[{r[0], r[1]}];
         Rows out;
         for (const auto& [key, n] : groups) {
           out.push_back({key.first, key.second, n});
         }
         return SortedAnswer(std::move(out));
       },
       pm_rows});

  InitZipf(w.get(), 1000, seed);
  w->execute_share = 0.3;
  w->prepared_per_client = 4;
  return w;
}

// The fact/dimension pair analytic_sort and spill_stream share in shape:
// (k1, k2) keys over 1000 values each plus two payloads (p1 is the unique
// generation index), and a sorted dimension whose key matches k2 about once.
struct FactTables {
  Table fact;
  Table dim;
};

FactTables AddFactTables(Workload* w, const std::string& fact,
                         const std::string& dim, uint64_t seed) {
  w->tables.push_back({fact, Columns({"k1", "k2", "p1", "p2"}), 2, 250000,
                       1000, TableSeed(seed, 0), false});
  w->tables.push_back(
      {dim, Columns({"k", "v"}), 1, 50000, 50000, TableSeed(seed, 1), true});
  return {std::make_shared<Rows>(w->tables[0].Generate()),
          std::make_shared<Rows>(w->tables[1].Generate())};
}

std::map<uint64_t, std::vector<uint64_t>> DimIndex(const Rows& dim) {
  std::map<uint64_t, std::vector<uint64_t>> index;
  for (const Row& d : dim) index[d[0]].push_back(d[1]);
  return index;
}

// analytic_sort: full sorts, aggregation, a join and a distinct over an
// unsorted 250k-row fact, one serial statement at a time, in memory.
std::unique_ptr<Workload> AnalyticSort(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "analytic_sort";
  w->clients = 1;
  w->max_queries = 1;
  w->workers = 1;
  w->tail_percentile = 0.85;
  const FactTables t = AddFactTables(w.get(), "af", "ad", seed);
  w->tables.push_back({"aw", Columns({"c1", "c2", "c3", "c4", "c5", "c6"}), 6,
                       200000, 8, TableSeed(seed, 2), false});
  const Table aw = std::make_shared<Rows>(w->tables[2].Generate());
  const uint64_t fact_rows = w->tables[0].rows;
  const uint64_t b = seed % 1000;
  const Table fact = t.fact;
  const Table dim = t.dim;

  w->templates.push_back(
      {"order_by_k1",
       [b](uint64_t) {
         return "SELECT k1, p1, p2 FROM af WHERE k2 != " + Str(b) +
                " ORDER BY k1, p1 LIMIT 10";
       },
       [fact, b](uint64_t) {
         Rows out;
         for (const Row& r : *fact) {
           if (r[1] != b) out.push_back({r[0], r[2], r[3]});
         }
         return SortedAnswer(std::move(out), 10);
       },
       fact_rows});
  w->templates.push_back(
      {"group_by",
       [b](uint64_t) {
         return "SELECT k2, COUNT(*) AS n, SUM(p2) AS s FROM af WHERE k1 != " +
                Str(b) + " GROUP BY k2 ORDER BY k2 LIMIT 10";
       },
       [fact, b](uint64_t) {
         std::map<uint64_t, std::pair<uint64_t, uint64_t>> groups;
         for (const Row& r : *fact) {
           if (r[0] == b) continue;
           auto& g = groups[r[1]];
           ++g.first;
           g.second += r[3];
         }
         Rows out;
         for (const auto& [k, g] : groups) out.push_back({k, g.first, g.second});
         return SortedAnswer(std::move(out), 10);
       },
       fact_rows});
  w->templates.push_back(
      {"join_group_by",
       [b](uint64_t) {
         return "SELECT af.k1, COUNT(*) AS n, SUM(ad.v) AS s FROM af JOIN ad "
                "ON af.k2 = ad.k WHERE af.k1 != " +
                Str(b) + " GROUP BY af.k1 ORDER BY af.k1 LIMIT 10";
       },
       [fact, dim, b](uint64_t) {
         const auto index = DimIndex(*dim);
         std::map<uint64_t, std::pair<uint64_t, uint64_t>> groups;
         for (const Row& r : *fact) {
           if (r[0] == b) continue;
           auto it = index.find(r[1]);
           if (it == index.end()) continue;
           for (uint64_t v : it->second) {
             auto& g = groups[r[0]];
             ++g.first;
             g.second += v;
           }
         }
         Rows out;
         for (const auto& [k, g] : groups) out.push_back({k, g.first, g.second});
         return SortedAnswer(std::move(out), 10);
       },
       fact_rows + w->tables[1].rows});
  w->templates.push_back(
      {"distinct",
       [b](uint64_t) {
         return "SELECT DISTINCT k1, k2 FROM af WHERE k2 != " + Str(b) +
                " ORDER BY k1, k2 LIMIT 10";
       },
       [fact, b](uint64_t) {
         std::set<Row> distinct;
         for (const Row& r : *fact) {
           if (r[1] != b) distinct.insert({r[0], r[1]});
         }
         return SortedAnswer(Rows(distinct.begin(), distinct.end()), 10);
       },
       fact_rows});
  // Six low-cardinality key columns: the regime where offset-value codes
  // save the most column comparisons.
  w->templates.push_back(
      {"order_by_6_keys",
       [](uint64_t) {
         return std::string(
             "SELECT c1, c2, c3, c4, c5, c6 FROM aw "
             "ORDER BY c1, c2, c3, c4, c5, c6 LIMIT 10");
       },
       [aw](uint64_t) { return SortedAnswer(*aw, 10); },
       w->tables[2].rows});
  return w;
}

// spill_stream: the same kind of fact under budgets small enough that every
// sort spills tens of runs and the hash join falls back to sort/merge, with
// 10k-50k-row results streamed back under a total order.
std::unique_ptr<Workload> SpillStream(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "spill_stream";
  w->clients = 2;
  w->max_queries = 2;
  w->workers = 2;
  // Machine totals; ovcd divides them by max_queries, so each statement
  // sorts in 16k rows and hashes in 8k.
  w->sort_memory_rows = 32768;
  w->hash_memory_rows = 16384;
  w->tail_percentile = 0.95;
  const FactTables t = AddFactTables(w.get(), "sf", "sd", seed);
  const uint64_t fact_rows = w->tables[0].rows;
  const uint64_t dim_rows = w->tables[1].rows;
  const uint64_t b = seed % 1000;
  const uint64_t range1 = seed % 850;
  const uint64_t range2 = (seed / 7) % 900;
  const Table fact = t.fact;
  const Table dim = t.dim;

  w->templates.push_back(
      {"range_order_by",
       [range1](uint64_t) {
         return "SELECT k2, k1, p1 FROM sf WHERE k2 >= " + Str(range1) +
                " AND k2 < " + Str(range1 + 150) + " ORDER BY k2, k1, p1";
       },
       [fact, range1](uint64_t) {
         Rows out;
         for (const Row& r : *fact) {
           if (r[1] >= range1 && r[1] < range1 + 150) {
             out.push_back({r[1], r[0], r[2]});
           }
         }
         return SortedAnswer(std::move(out));
       },
       fact_rows});
  w->templates.push_back(
      {"order_by_limit",
       [b](uint64_t) {
         return "SELECT k2, p1, k1, p2 FROM sf WHERE k1 != " + Str(b) +
                " ORDER BY k2, p1 LIMIT 30000";
       },
       [fact, b](uint64_t) {
         Rows out;
         for (const Row& r : *fact) {
           if (r[0] != b) out.push_back({r[1], r[2], r[0], r[3]});
         }
         return SortedAnswer(std::move(out), 30000);
       },
       fact_rows});
  w->templates.push_back(
      {"group_by",
       [b](uint64_t) {
         return "SELECT k1, k2, COUNT(*) AS n FROM sf WHERE k2 != " + Str(b) +
                " GROUP BY k1, k2 ORDER BY k1, k2 LIMIT 40000";
       },
       [fact, b](uint64_t) {
         std::map<std::pair<uint64_t, uint64_t>, uint64_t> groups;
         for (const Row& r : *fact) {
           if (r[1] != b) ++groups[{r[0], r[1]}];
         }
         Rows out;
         for (const auto& [key, n] : groups) {
           out.push_back({key.first, key.second, n});
         }
         return SortedAnswer(std::move(out), 40000);
       },
       fact_rows});
  w->templates.push_back(
      {"join",
       [range2](uint64_t) {
         return "SELECT sf.k1, sf.p1, sd.v FROM sf JOIN sd ON sf.k2 = sd.k "
                "WHERE sf.k1 >= " +
                Str(range2) + " AND sf.k1 < " + Str(range2 + 100) +
                " ORDER BY sf.k1, sf.p1, sd.v";
       },
       [fact, dim, range2](uint64_t) {
         const auto index = DimIndex(*dim);
         Rows out;
         for (const Row& r : *fact) {
           if (r[0] < range2 || r[0] >= range2 + 100) continue;
           auto it = index.find(r[1]);
           if (it == index.end()) continue;
           for (uint64_t v : it->second) out.push_back({r[0], r[2], v});
         }
         return SortedAnswer(std::move(out));
       },
       fact_rows + dim_rows});
  w->templates.push_back(
      {"distinct",
       [b](uint64_t) {
         return "SELECT DISTINCT k2, k1 FROM sf WHERE k1 != " + Str(b) +
                " ORDER BY k2, k1 LIMIT 20000";
       },
       [fact, b](uint64_t) {
         std::set<Row> distinct;
         for (const Row& r : *fact) {
           if (r[0] != b) distinct.insert({r[1], r[0]});
         }
         return SortedAnswer(Rows(distinct.begin(), distinct.end()), 20000);
       },
       fact_rows});
  return w;
}

}  // namespace

std::string TableSpec::GenSpec() const {
  std::string spec = name + "(";
  for (size_t i = 0; i < columns.size(); ++i) {
    spec += (i ? "," : "") + columns[i];
  }
  spec += ") rows=" + Str(rows) + " keys=" + Str(keys) +
          " distinct=" + Str(distinct) + " seed=" + Str(seed);
  if (sorted) spec += " sorted";
  return spec;
}

ovc::Schema TableSpec::schema() const {
  return ovc::Schema(keys, static_cast<uint32_t>(columns.size()) - keys);
}

Rows TableSpec::Generate() const {
  const ovc::Schema s = schema();
  ovc::GeneratorConfig config;
  config.rows = rows;
  config.distinct_per_column = distinct;
  config.seed = seed;
  config.sorted = sorted;
  ovc::RowBuffer buffer(s.total_columns());
  ovc::GenerateRows(s, config, &buffer);
  Rows out(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    out[i].assign(buffer.row(i), buffer.row(i) + s.total_columns());
  }
  return out;
}

Request Workload::Next(uint32_t client, uint64_t index,
                       const std::vector<Request>& prepared,
                       ovc::Rng* rng) const {
  Request r;
  if (cycles()) {
    r.tmpl = static_cast<uint32_t>((client + index) % templates.size());
    return r;
  }
  if (!prepared.empty() &&
      static_cast<double>(rng->Uniform(1000)) < execute_share * 1000) {
    const size_t i = rng->Uniform(prepared.size());
    r = prepared[i];
    r.execute = true;
    r.prepared = i;
    return r;
  }
  r.tmpl = static_cast<uint32_t>(rng->Uniform(templates.size()));
  r.literal = ZipfLiteral(*this, rng);
  return r;
}

std::vector<Request> Workload::Prepared(ovc::Rng* rng) const {
  std::vector<Request> out;
  for (uint32_t i = 0; i < prepared_per_client; ++i) {
    Request r;
    r.tmpl = static_cast<uint32_t>(i % templates.size());
    r.literal = ZipfLiteral(*this, rng);
    out.push_back(r);
  }
  return out;
}

std::vector<std::string> Workload::ServerFlags() const {
  std::vector<std::string> flags = {"--max-queries=" + Str(max_queries),
                                    "--workers-per-query=" + Str(workers)};
  if (sort_memory_rows != 0) {
    flags.push_back("--sort-memory-rows=" + Str(sort_memory_rows));
  }
  if (hash_memory_rows != 0) {
    flags.push_back("--hash-memory-rows=" + Str(hash_memory_rows));
  }
  return flags;
}

void Workload::ComputeAnswers() {
  const uint64_t literals = cycles() ? 1 : zipf_domain;
  for (uint32_t t = 0; t < templates.size(); ++t) {
    for (uint64_t x = 0; x < literals; ++x) {
      answers[{t, x}] = templates[t].reference(x);
    }
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "point_mix") return PointMix(seed);
  if (name == "analytic_sort") return AnalyticSort(seed);
  if (name == "spill_stream") return SpillStream(seed);
  return nullptr;
}

}  // namespace perfbench
