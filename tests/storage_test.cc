#include "storage/column_view.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/storage_metrics.h"
#include "storage/tuple.h"
#include "storage/tuple_store.h"
#include "storage/vector_kernels.h"
#include "util/hash_util.h"
#include "util/simd.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

PredicateId Pred(const char* name, uint32_t arity) {
  return PredicateId{InternSymbol(name), arity};
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(Pred("edge", 2));
  EXPECT_TRUE(rel.Insert({Term::Sym("a"), Term::Sym("b")}));
  EXPECT_FALSE(rel.Insert({Term::Sym("a"), Term::Sym("b")}));
  EXPECT_TRUE(rel.Insert({Term::Sym("b"), Term::Sym("a")}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains({Term::Sym("a"), Term::Sym("b")}));
  EXPECT_FALSE(rel.Contains({Term::Sym("a"), Term::Sym("a")}));
}

TEST(RelationTest, RowsKeepInsertionOrder) {
  Relation rel(Pred("n", 1));
  for (int i = 0; i < 10; ++i) rel.Insert({Term::Int(i)});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rel.row(i)[0].int_value(), i);
}

TEST(RelationTest, ProbeSingleColumn) {
  Relation rel(Pred("edge", 2));
  rel.Insert({Term::Sym("a"), Term::Sym("b")});
  rel.Insert({Term::Sym("a"), Term::Sym("c")});
  rel.Insert({Term::Sym("b"), Term::Sym("c")});
  rel.EnsureIndex({0});
  rel.EnsureIndex({1});
  const auto& hits = rel.Probe({0}, {Term::Sym("a")});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(rel.Probe({0}, {Term::Sym("z")}).empty());
  const auto& second = rel.Probe({1}, {Term::Sym("c")});
  EXPECT_EQ(second.size(), 2u);
}

TEST(RelationTest, ProbeMultiColumnAndIncrementalMaintenance) {
  Relation rel(Pred("t", 3));
  rel.Insert({Term::Int(1), Term::Int(2), Term::Int(3)});
  rel.EnsureIndex({0, 2});
  // Insert after the index exists; the index must be maintained.
  rel.Insert({Term::Int(1), Term::Int(9), Term::Int(3)});
  const auto& hits = rel.Probe({0, 2}, {Term::Int(1), Term::Int(3)});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_GE(rel.index_count(), 1u);
}

TEST(RelationTest, ClearResetsEverything) {
  Relation rel(Pred("x", 1));
  rel.Insert({Term::Int(1)});
  rel.EnsureIndex({0});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains({Term::Int(1)}));
  rel.EnsureIndex({0});
  EXPECT_TRUE(rel.Probe({0}, {Term::Int(1)}).empty());
  EXPECT_TRUE(rel.Insert({Term::Int(1)}));
}

TEST(RelationTest, ZeroArity) {
  Relation rel(Pred("flag", 0));
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
}

TEST(DatabaseTest, AddFactAndFind) {
  Database db;
  Atom fact("edge", {Term::Sym("a"), Term::Sym("b")});
  ASSERT_TRUE(db.AddFact(fact).ok());
  const Relation* rel = db.Find(Pred("edge", 2));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_EQ(db.Find(Pred("edge", 3)), nullptr);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, AddFactRejectsNonGround) {
  Database db;
  EXPECT_FALSE(db.AddFact(Atom("edge", {Term::Var("X")})).ok());
}

TEST(DatabaseTest, CloneIsDeepAndEqual) {
  Database db = testing_util::MustParseFacts("e(a, b). e(b, c). f(1).");
  Database copy = db.Clone();
  EXPECT_TRUE(db.SameFactsAs(copy));
  copy.AddTuple("e", {Term::Sym("x"), Term::Sym("y")});
  EXPECT_FALSE(db.SameFactsAs(copy));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(DatabaseTest, SameFactsIgnoresEmptyRelations) {
  Database a = testing_util::MustParseFacts("e(a, b).");
  Database b = testing_util::MustParseFacts("e(a, b).");
  b.GetOrCreate(Pred("unused", 1));  // empty relation should not matter
  EXPECT_TRUE(a.SameFactsAs(b));
  EXPECT_TRUE(b.SameFactsAs(a));
}

TEST(DatabaseTest, SameFactsDetectsDifferences) {
  Database a = testing_util::MustParseFacts("e(a, b). e(b, c).");
  Database b = testing_util::MustParseFacts("e(a, b). e(c, b).");
  EXPECT_FALSE(a.SameFactsAs(b));
  Database c = testing_util::MustParseFacts("e(a, b).");
  EXPECT_FALSE(a.SameFactsAs(c));
  EXPECT_FALSE(c.SameFactsAs(a));
}

TEST(TupleTest, Printing) {
  EXPECT_EQ(TupleToString({Term::Sym("a"), Term::Int(3)}), "(a, 3)");
  EXPECT_EQ(TupleToString(Tuple{}), "()");
}


// --- TupleStore (flat arena) -------------------------------------------

TEST(TupleStoreTest, InsertFindAndDedup) {
  TupleStore store(2);
  Tuple ab{Term::Sym("a"), Term::Sym("b")};
  Tuple ba{Term::Sym("b"), Term::Sym("a")};
  auto [id0, fresh0] = store.InsertIfAbsent(ab.data());
  EXPECT_TRUE(fresh0);
  EXPECT_EQ(id0, 0u);
  auto [id1, fresh1] = store.InsertIfAbsent(ba.data());
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(id1, 1u);
  auto [id2, fresh2] = store.InsertIfAbsent(ab.data());
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(id2, 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Find(ab.data()), 0u);
  EXPECT_EQ(store.Find(ba.data()), 1u);
  Tuple aa{Term::Sym("a"), Term::Sym("a")};
  EXPECT_EQ(store.Find(aa.data()), kInvalidRowId);
  EXPECT_EQ(store.row(0)[1], Term::Sym("b"));
  EXPECT_EQ(store.row_hash(0), HashValues(store.row(0)));
}

TEST(TupleStoreTest, ZeroArityHoldsAtMostOneRow) {
  TupleStore store(0);
  EXPECT_FALSE(store.Contains(nullptr));
  auto [id, fresh] = store.InsertIfAbsent(nullptr);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(id, 0u);
  auto [id2, fresh2] = store.InsertIfAbsent(nullptr);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(id2, 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(nullptr));
  EXPECT_EQ(store.row(0).size(), 0u);
}

TEST(TupleStoreTest, RehashKeepsRowIdsAndIterationOrder) {
  // Push far past the initial 16-slot table so several rehashes happen;
  // RowIds must stay dense in insertion order throughout.
  TupleStore store(1);
  constexpr int kRows = 5000;
  for (int i = 0; i < kRows; ++i) {
    Tuple t{Term::Int(i * 7)};
    auto [id, fresh] = store.InsertIfAbsent(t.data());
    ASSERT_TRUE(fresh);
    ASSERT_EQ(id, static_cast<RowId>(i));
  }
  ASSERT_EQ(store.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(store.row(static_cast<RowId>(i))[0].int_value(), i * 7);
    Tuple t{Term::Int(i * 7)};
    EXPECT_EQ(store.Find(t.data()), static_cast<RowId>(i));
  }
}

TEST(TupleStoreTest, ClearRetainsCapacityAndStaysCorrect) {
  TupleStore store(2);
  for (int i = 0; i < 1000; ++i) {
    Tuple t{Term::Int(i), Term::Int(-i)};
    store.InsertIfAbsent(t.data());
  }
  const int64_t bytes_full = store.ByteSize();
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  // Capacity (and thus the byte accounting) survives the clear.
  EXPECT_EQ(store.ByteSize(), bytes_full);
  Tuple probe{Term::Int(3), Term::Int(-3)};
  EXPECT_FALSE(store.Contains(probe.data()));
  for (int i = 0; i < 1000; ++i) {
    Tuple t{Term::Int(i), Term::Int(-i)};
    auto [id, fresh] = store.InsertIfAbsent(t.data());
    ASSERT_TRUE(fresh);
    ASSERT_EQ(id, static_cast<RowId>(i));
  }
  EXPECT_TRUE(store.Contains(probe.data()));
  EXPECT_EQ(store.ByteSize(), bytes_full);
}

TEST(TupleStoreTest, MillionRowInsertIsDeterministic) {
  // Two stores fed the same SplitMix64 stream (with duplicates) must
  // agree on size, RowId assignment, and iteration order.
  auto build = [] {
    TupleStore store(2);
    SplitMix64 rng(0x5eedu);
    for (int i = 0; i < 1000000; ++i) {
      Tuple t{Term::Int(static_cast<int64_t>(rng.Below(1 << 18))),
              Term::Int(static_cast<int64_t>(rng.Below(1 << 18)))};
      store.InsertIfAbsent(t.data());
    }
    return store;
  };
  TupleStore a = build();
  TupleStore b = build();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 900000u);  // collisions exist but are rare
  for (size_t i = 0; i < a.size(); i += 997) {
    RowId id = static_cast<RowId>(i);
    EXPECT_TRUE(ValuesEqual(a.row_data(id), b.row_data(id), 2));
    EXPECT_EQ(a.row_hash(id), b.row_hash(id));
  }
}

TEST(TupleStoreTest, CopyAndMovePreserveContentAndMetrics) {
  TupleStore store(1);
  for (int i = 0; i < 64; ++i) {
    Tuple t{Term::Int(i)};
    store.InsertIfAbsent(t.data());
  }
  TupleStore copy = store;
  EXPECT_EQ(copy.size(), 64u);
  Tuple probe{Term::Int(7)};
  EXPECT_TRUE(copy.Contains(probe.data()));
  int64_t before = storage_metrics::LiveTupleBytes();
  {
    TupleStore moved = std::move(copy);
    EXPECT_EQ(moved.size(), 64u);
    EXPECT_TRUE(moved.Contains(probe.data()));
    // A move transfers the byte accounting instead of double-counting.
    EXPECT_EQ(storage_metrics::LiveTupleBytes(), before);
  }
  EXPECT_LT(storage_metrics::LiveTupleBytes(), before);
}

// --- Probe regression & index invariants --------------------------------

TEST(RelationTest, ProbeWithoutIndexDebugAsserts) {
  Relation rel(Pred("edge_np", 2));
  rel.Insert({Term::Sym("a"), Term::Sym("b")});
  Tuple key{Term::Sym("a")};
#ifdef NDEBUG
  // Release builds degrade to "no matches" instead of crashing.
  EXPECT_TRUE(rel.Probe({0}, key).empty());
#else
  EXPECT_DEATH(rel.Probe({0}, key), "EnsureIndex");
#endif
}

TEST(RelationTest, ClearRetainsIndexesAndRefills) {
  Relation rel(Pred("edge_cl", 2));
  rel.EnsureIndex({0});
  for (int i = 0; i < 100; ++i) {
    rel.Insert({Term::Int(i % 10), Term::Int(i)});
  }
  EXPECT_EQ(rel.Probe({0}, Tuple{Term::Int(3)}).size(), 10u);
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_EQ(rel.index_count(), 1u);
  EXPECT_TRUE(rel.Probe({0}, Tuple{Term::Int(3)}).empty());
  for (int i = 0; i < 100; ++i) {
    rel.Insert({Term::Int(i % 10), Term::Int(i)});
  }
  const std::vector<RowId>& hits = rel.Probe({0}, Tuple{Term::Int(3)});
  EXPECT_EQ(hits.size(), 10u);
  for (RowId r : hits) EXPECT_EQ(rel.row(r)[0].int_value(), 3);
}

TEST(RelationTest, ProbeBatchMatchesProbePerKey) {
  Relation rel(Pred("edge_pb", 2));
  rel.EnsureIndex({0});
  for (int i = 0; i < 200; ++i) {
    rel.Insert({Term::Int(i % 17), Term::Int(i)});
  }
  // Keys covering hits of varying fan-out, misses, and repeats, laid
  // out flat (key width 1).
  std::vector<Value> keys;
  for (int k : {0, 3, 99, 16, 3, -5, 7}) keys.push_back(Term::Int(k));
  std::vector<size_t> hash_scratch;
  std::vector<std::span<const RowId>> spans;
  rel.ProbeBatch({0}, keys.data(), keys.size(), &hash_scratch, &spans);
  ASSERT_EQ(spans.size(), keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::vector<RowId>& expected = rel.Probe({0}, &keys[k]);
    std::vector<RowId> got(spans[k].begin(), spans[k].end());
    EXPECT_EQ(got, expected) << "key index " << k;
  }
  // count = 0 yields no spans and reuses the output capacity.
  rel.ProbeBatch({0}, nullptr, 0, &hash_scratch, &spans);
  EXPECT_TRUE(spans.empty());
}

TEST(RelationTest, ProbeBatchOnEmptyIndexedRelation) {
  Relation rel(Pred("edge_pbe", 2));
  rel.EnsureIndex({0});
  std::vector<Value> keys{Term::Int(1), Term::Int(2)};
  std::vector<size_t> hash_scratch{7u};  // stale content is overwritten
  std::vector<std::span<const RowId>> spans(1);
  rel.ProbeBatch({0}, keys.data(), keys.size(), &hash_scratch, &spans);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].empty());
  EXPECT_TRUE(spans[1].empty());
}

TEST(RelationTest, HasIndexTracksEnsureIndex) {
  Relation rel(Pred("edge_hi", 2));
  EXPECT_FALSE(rel.HasIndex({0}));
  rel.EnsureIndex({0});
  EXPECT_TRUE(rel.HasIndex({0}));
  EXPECT_FALSE(rel.HasIndex({1}));
  EXPECT_FALSE(rel.HasIndex({0, 1}));
  rel.Clear();  // indexes stay registered across Clear
  EXPECT_TRUE(rel.HasIndex({0}));
}

TEST(TupleBufferTest, AppendAllConcatenatesBlocks) {
  TupleBuffer a(2), b(2);
  a.Append(Tuple{Term::Int(1), Term::Int(2)});
  b.Append(Tuple{Term::Int(3), Term::Int(4)});
  b.Append(Tuple{Term::Int(5), Term::Int(6)});
  a.AppendAll(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(TupleToString(a.row(0)), "(1, 2)");
  EXPECT_EQ(TupleToString(a.row(2)), "(5, 6)");
  // Arity-0 blocks count rows without storing values.
  TupleBuffer z0(0), z1(0);
  z0.Append(RowRef());
  z1.AppendAll(z0);
  z1.AppendAll(z0);
  EXPECT_EQ(z1.size(), 2u);
}

// --- Model-based property test ------------------------------------------

TEST(RelationPropertyTest, MatchesSetModelUnderRandomWorkload) {
  SplitMix64 rng(20260806u);
  Relation rel(Pred("prop", 3));
  rel.EnsureIndex({0});
  rel.EnsureIndex({0, 2});
  std::set<Tuple> model;
  for (int step = 0; step < 20000; ++step) {
    Tuple t{Term::Int(static_cast<int64_t>(rng.Below(40))),
            Term::Int(static_cast<int64_t>(rng.Below(40))),
            Term::Int(static_cast<int64_t>(rng.Below(40)))};
    bool fresh = rel.Insert(t);
    EXPECT_EQ(fresh, model.insert(t).second);
    if (step % 100 != 0) continue;
    // Membership agrees with the model on present and absent rows.
    Tuple probe{Term::Int(static_cast<int64_t>(rng.Below(40))),
                Term::Int(static_cast<int64_t>(rng.Below(40))),
                Term::Int(static_cast<int64_t>(rng.Below(40)))};
    EXPECT_EQ(rel.Contains(probe), model.count(probe) > 0);
    // Probe hits match a linear scan of the model.
    Tuple key{Term::Int(static_cast<int64_t>(rng.Below(40)))};
    std::vector<Tuple> expected;
    for (const Tuple& m : model) {
      if (m[0] == key[0]) expected.push_back(m);
    }
    std::vector<Tuple> actual;
    for (RowId r : rel.Probe({0}, key)) {
      RowRef row = rel.row(r);
      actual.emplace_back(row.begin(), row.end());
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
  ASSERT_EQ(rel.size(), model.size());
  size_t i = 0;
  std::set<Tuple> seen;
  for (RowRef row : rel.rows()) {
    EXPECT_EQ(rel.row_hash(i), HashValues(row));
    seen.emplace(row.begin(), row.end());
    ++i;
  }
  EXPECT_EQ(seen, model);
}

// --- Erase (swap-removal) ------------------------------------------------

TEST(RelationEraseTest, SwapRemoveReportsMovesAndIgnoresAbsent) {
  Relation rel(Pred("er", 1));
  for (int i = 0; i < 5; ++i) rel.Insert({Term::Int(i)});
  TupleBuffer victims(1);
  victims.Append(RowRef(Tuple{Term::Int(1)}));
  victims.Append(RowRef(Tuple{Term::Int(1)}));   // in-batch repeat: no-op
  victims.Append(RowRef(Tuple{Term::Int(99)}));  // absent: no-op
  std::vector<std::pair<RowId, RowId>> moves;
  EXPECT_EQ(rel.Erase(victims, &moves), 1u);
  EXPECT_EQ(rel.size(), 4u);
  // Row 4 (the last) moved into the vacated id 1.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0], (std::pair<RowId, RowId>{4, 1}));
  EXPECT_FALSE(rel.Contains({Term::Int(1)}));
  for (int i : {0, 2, 3, 4}) EXPECT_TRUE(rel.Contains({Term::Int(i)}));
  // Erasing the current last row produces no move.
  const Tuple last{rel.row(rel.size() - 1).begin(),
                   rel.row(rel.size() - 1).end()};
  TupleBuffer tail(1);
  tail.Append(RowRef(last));
  EXPECT_EQ(rel.Erase(tail, &moves), 1u);
  EXPECT_TRUE(moves.empty());
  EXPECT_EQ(rel.size(), 3u);
}

TEST(RelationEraseTest, IndexesStayConsistentThroughEraseAndReinsert) {
  Relation rel(Pred("eidx", 2));
  rel.EnsureIndex({0});
  for (int i = 0; i < 32; ++i) {
    rel.Insert({Term::Int(i % 4), Term::Int(i)});
  }
  // Erase every row of one key: its bucket goes dead but probes for
  // other keys (whose runs may pass over it) keep working.
  TupleBuffer victims(2);
  for (int i = 0; i < 32; ++i) {
    if (i % 4 == 2) victims.Append(RowRef(Tuple{Term::Int(2), Term::Int(i)}));
  }
  EXPECT_EQ(rel.Erase(victims), 8u);
  EXPECT_TRUE(rel.Probe({0}, {Term::Int(2)}).empty());
  for (int k : {0, 1, 3}) {
    EXPECT_EQ(rel.Probe({0}, {Term::Int(k)}).size(), 8u) << "key " << k;
  }
  // Reinsert into the erased key; the index must pick the rows up again
  // (a fresh bucket — the dead one is garbage, collected on rehash).
  rel.Insert({Term::Int(2), Term::Int(100)});
  rel.Insert({Term::Int(2), Term::Int(101)});
  EXPECT_EQ(rel.Probe({0}, {Term::Int(2)}).size(), 2u);
  // Probe results point at live, correct rows.
  for (RowId r : rel.Probe({0}, {Term::Int(2)})) {
    EXPECT_EQ(rel.row(r)[0].int_value(), 2);
  }
}

TEST(RelationEraseTest, RandomChurnMatchesSetModel) {
  SplitMix64 rng(20260808u);
  Relation rel(Pred("churn", 2));
  rel.EnsureIndex({0});
  rel.EnsureIndex({0, 1});
  std::set<Tuple> model;
  for (int step = 0; step < 4000; ++step) {
    Tuple t{Term::Int(static_cast<int64_t>(rng.Below(30))),
            Term::Int(static_cast<int64_t>(rng.Below(30)))};
    if (rng.Below(3) == 0) {
      TupleBuffer victims(2);
      victims.Append(RowRef(t));
      EXPECT_EQ(rel.Erase(victims), model.erase(t));
    } else {
      EXPECT_EQ(rel.Insert(t), model.insert(t).second);
    }
    if (step % 97 != 0) continue;
    Tuple key{Term::Int(static_cast<int64_t>(rng.Below(30)))};
    std::vector<Tuple> expected;
    for (const Tuple& m : model) {
      if (m[0] == key[0]) expected.push_back(m);
    }
    std::vector<Tuple> actual;
    for (RowId r : rel.Probe({0}, key)) {
      RowRef row = rel.row(r);
      actual.emplace_back(row.begin(), row.end());
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
  ASSERT_EQ(rel.size(), model.size());
  std::set<Tuple> seen;
  size_t i = 0;
  for (RowRef row : rel.rows()) {
    EXPECT_EQ(rel.row_hash(i), HashValues(row));
    seen.emplace(row.begin(), row.end());
    ++i;
  }
  EXPECT_EQ(seen, model);
}

TEST(RelationEraseTest, SteadyChurnKeepsIndexSlotsBounded) {
  // The live row count stays constant: each batch inserts kBatch fresh
  // rows and erases the kBatch oldest. Column 0 repeats (shared
  // buckets), column 1 is unique (a new bucket per insert, a dead one
  // per erase), so the index slot tables must be sized from live
  // buckets, not from live plus dead.
  constexpr int64_t kLive = 2000;
  constexpr int64_t kBatch = 32;
  constexpr int64_t kKeys = 97;
  Relation rel(Pred("steady", 2));
  rel.EnsureIndex({0});
  rel.EnsureIndex({1});
  std::multimap<int64_t, int64_t> model;  // column 0 -> column 1
  auto row = [](int64_t i) {
    return Tuple{Term::Int(i % kKeys), Term::Int(i)};
  };
  int64_t next = 0;
  for (; next < kLive; ++next) {
    rel.Insert(row(next));
    model.emplace(next % kKeys, next);
  }
  const size_t slots0 = rel.index_slots_for_testing({0});
  const size_t slots1 = rel.index_slots_for_testing({1});
  ASSERT_GT(slots1, 0u);
  for (int batch = 0; batch < 600; ++batch) {
    TupleBuffer victims(2);
    for (int64_t i = next - kLive; i < next - kLive + kBatch; ++i) {
      victims.Append(RowRef(row(i)));
      auto [lo, hi] = model.equal_range(i % kKeys);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == i) {
          model.erase(it);
          break;
        }
      }
    }
    for (int64_t k = 0; k < kBatch; ++k, ++next) {
      EXPECT_TRUE(rel.Insert(row(next)));
      model.emplace(next % kKeys, next);
    }
    EXPECT_EQ(rel.Erase(victims), static_cast<size_t>(kBatch));
    ASSERT_EQ(rel.size(), static_cast<size_t>(kLive));
    EXPECT_LE(rel.index_slots_for_testing({0}), slots0);
    EXPECT_LE(rel.index_slots_for_testing({1}), 2 * slots1);
    if (batch % 50 != 0) continue;
    const int64_t key = batch % kKeys;
    std::vector<int64_t> expected;
    auto [lo, hi] = model.equal_range(key);
    for (auto it = lo; it != hi; ++it) expected.push_back(it->second);
    std::vector<int64_t> actual;
    for (RowId r : rel.Probe({0}, {Term::Int(key)})) {
      EXPECT_EQ(rel.row(r)[0].int_value(), key);
      actual.push_back(rel.row(r)[1].int_value());
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
    // Column 1: the newest row is present, the just-erased one is not.
    EXPECT_EQ(rel.Probe({1}, {Term::Int(next - 1)}).size(), 1u);
    EXPECT_TRUE(rel.Probe({1}, {Term::Int(next - kLive - 1)}).empty());
  }
}

TEST(TupleStoreTest, SwapRemoveKeepsDedupTableConsistent) {
  TupleStore store(1);
  for (int i = 0; i < 100; ++i) {
    Tuple t{Term::Int(i)};
    store.InsertIfAbsent(t.data());
  }
  // Remove every third row (by whatever id it currently has).
  for (int i = 0; i < 100; i += 3) {
    Tuple t{Term::Int(i)};
    const RowId id = store.Find(t.data());
    ASSERT_NE(id, kInvalidRowId);
    store.SwapRemove(id);
  }
  EXPECT_EQ(store.size(), 66u);
  for (int i = 0; i < 100; ++i) {
    Tuple t{Term::Int(i)};
    EXPECT_EQ(store.Find(t.data()) != kInvalidRowId, i % 3 != 0) << i;
  }
  // Reinsert the removed rows; dedup must not duplicate survivors.
  for (int i = 0; i < 100; ++i) {
    Tuple t{Term::Int(i)};
    store.InsertIfAbsent(t.data());
  }
  EXPECT_EQ(store.size(), 100u);
}

// --- Storage metrics -----------------------------------------------------

TEST(StorageMetricsTest, TupleBytesTrackRelationLifetime) {
  int64_t before = storage_metrics::LiveTupleBytes();
  {
    Relation rel(Pred("metric_rel", 2));
    for (int i = 0; i < 4096; ++i) {
      rel.Insert({Term::Int(i), Term::Int(i + 1)});
    }
    EXPECT_GE(storage_metrics::LiveTupleBytes(),
              before + static_cast<int64_t>(4096 * 2 * sizeof(Value)));
    EXPECT_EQ(storage_metrics::LiveTupleBytes() - before,
              rel.store().ByteSize());
  }
  EXPECT_EQ(storage_metrics::LiveTupleBytes(), before);
}

TEST(StorageMetricsTest, RehashCounterIsMonotonic) {
  uint64_t before = storage_metrics::TotalRehashes();
  Relation rel(Pred("metric_rehash", 1));
  rel.EnsureIndex({0});
  for (int i = 0; i < 10000; ++i) rel.Insert({Term::Int(i)});
  // Both the dedup table and the index grew several times.
  EXPECT_GE(storage_metrics::TotalRehashes(), before + 2);
}

// --- Vectorized kernels (vector_kernels.h) -------------------------------

/// Random value mixing int and symbol kinds (symbols from a small pool
/// so columns repeat payloads — the interesting case for compares).
Value RandomValue(SplitMix64& rng) {
  if (rng.Below(2) == 0) {
    return Term::Int(static_cast<int64_t>(rng.Next()));
  }
  static const char* kPool[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  return Term::Sym(kPool[rng.Below(8)]);
}

TEST(VectorKernelsTest, HashValuesBatchMatchesScalarHash) {
  SplitMix64 rng(0xbadc0deu);
  // Sweep counts across the 8-lane boundary (0, partial, full, mixed
  // tails) and several arities, including arity 0.
  for (size_t arity : {0u, 1u, 2u, 3u, 5u}) {
    for (size_t count : {0u, 1u, 7u, 8u, 9u, 16u, 21u, 64u}) {
      std::vector<Value> rows;
      for (size_t i = 0; i < count * arity; ++i) {
        rows.push_back(RandomValue(rng));
      }
      std::vector<size_t> batch(count, 0), scalar(count, 1);
      HashValuesBatch(rows.data(), arity, count, batch.data());
      HashValuesBatchScalar(rows.data(), arity, count, scalar.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(batch[i], HashValues(rows.data() + i * arity, arity))
            << "arity " << arity << " count " << count << " row " << i;
        EXPECT_EQ(scalar[i], batch[i]);
      }
    }
  }
}

TEST(VectorKernelsTest, SelectAndRefineMatchScalarReference) {
  SplitMix64 rng(0x5e1ec7u);
  const uint32_t n = 1000;
  std::vector<uint64_t> a(n), b(n);
  for (uint32_t i = 0; i < n; ++i) {
    a[i] = rng.Below(8);  // small domain → plenty of matches
    b[i] = rng.Below(8);
  }
  const uint64_t needle = 3;
  // Unaligned begins/ends exercise the vector prologue/epilogue.
  for (uint32_t begin : {0u, 1u, 5u, 17u}) {
    for (uint32_t end : {n, n - 1, n - 9, begin}) {
      std::vector<uint32_t> sel{123456u};  // preserved prefix
      SelectLaneEq(a.data(), begin, end, needle, &sel);
      ASSERT_GE(sel.size(), 1u);
      EXPECT_EQ(sel[0], 123456u);
      size_t got = 1;
      for (uint32_t i = begin; i < end; ++i) {
        if (a[i] != needle) continue;
        ASSERT_LT(got, sel.size());
        EXPECT_EQ(sel[got], i);
        ++got;
      }
      EXPECT_EQ(got, sel.size());

      std::vector<uint32_t> sel2;
      SelectLanesEq(a.data(), b.data(), begin, end, &sel2);
      std::vector<uint32_t> want2;
      for (uint32_t i = begin; i < end; ++i) {
        if (a[i] == b[i]) want2.push_back(i);
      }
      EXPECT_EQ(sel2, want2);
    }
  }
  // Refine forms compact in place and preserve order.
  std::vector<uint32_t> every;
  for (uint32_t i = 0; i < n; i += 3) every.push_back(i);
  std::vector<uint32_t> refined = every;
  RefineLaneEq(a.data(), needle, &refined);
  std::vector<uint32_t> want;
  for (uint32_t i : every) {
    if (a[i] == needle) want.push_back(i);
  }
  EXPECT_EQ(refined, want);

  refined = every;
  RefineLanesEq(a.data(), b.data(), &refined);
  want.clear();
  for (uint32_t i : every) {
    if (a[i] == b[i]) want.push_back(i);
  }
  EXPECT_EQ(refined, want);

  std::vector<uint8_t> kinds(n);
  for (uint32_t i = 0; i < n; ++i) kinds[i] = static_cast<uint8_t>(i % 3);
  refined = every;
  RefineKindEq(kinds.data(), 1, &refined);
  want.clear();
  for (uint32_t i : every) {
    if (kinds[i] == 1) want.push_back(i);
  }
  EXPECT_EQ(refined, want);
}

// --- ColumnView -----------------------------------------------------------

TEST(ColumnViewTest, ReconstructsValuesAndDetectsUniformKinds) {
  Relation rel(Pred("cv", 3));
  for (int i = 0; i < 100; ++i) {
    // col 0: all ints; col 1: all symbols; col 2: mixed.
    rel.Insert({Term::Int(i % 7), Term::Sym(i % 2 == 0 ? "x" : "y"),
                i % 3 == 0 ? Value(Term::Int(i)) : Value(Term::Sym("z"))});
  }
  std::shared_ptr<const ColumnView> view = rel.EnsureColumns();
  ASSERT_EQ(view->rows(), rel.size());
  ASSERT_EQ(view->arity(), 3u);
  EXPECT_TRUE(view->uniform_kind(0));
  EXPECT_EQ(view->column_kind(0), TermKind::kIntConst);
  EXPECT_EQ(view->kinds(0), nullptr);
  EXPECT_TRUE(view->uniform_kind(1));
  EXPECT_EQ(view->column_kind(1), TermKind::kSymConst);
  EXPECT_FALSE(view->uniform_kind(2));
  ASSERT_NE(view->kinds(2), nullptr);
  for (size_t r = 0; r < view->rows(); ++r) {
    for (uint32_t c = 0; c < 3; ++c) {
      EXPECT_EQ(view->value(r, c), rel.row(r)[c]) << r << "," << c;
    }
  }
}

TEST(ColumnViewTest, SelectAndRefineMatchBruteForce) {
  SplitMix64 rng(0xc01u);
  Relation rel(Pred("cvsel", 2));
  for (int i = 0; i < 500; ++i) {
    rel.Insert({RandomValue(rng), RandomValue(rng)});
  }
  std::shared_ptr<const ColumnView> view = rel.EnsureColumns();
  const uint32_t n = static_cast<uint32_t>(view->rows());
  // Probe with values that do and don't occur, of both kinds — also an
  // int probe against the mixed column (kind mismatch must filter).
  std::vector<Value> probes{Term::Sym("c"), Term::Int(42),
                            rel.row(0)[0], rel.row(n / 2)[1]};
  for (const Value& v : probes) {
    for (uint32_t c = 0; c < 2; ++c) {
      std::vector<uint32_t> sel;
      view->SelectEq(c, v, 0, n, &sel);
      std::vector<uint32_t> want;
      for (uint32_t r = 0; r < n; ++r) {
        if (rel.row(r)[c] == v) want.push_back(r);
      }
      EXPECT_EQ(sel, want);
      // RefineEq over a stride-2 base must intersect.
      std::vector<uint32_t> base;
      for (uint32_t r = 0; r < n; r += 2) base.push_back(r);
      view->RefineEq(c, v, &base);
      want.clear();
      for (uint32_t r = 0; r < n; r += 2) {
        if (rel.row(r)[c] == v) want.push_back(r);
      }
      EXPECT_EQ(base, want);
    }
  }
  std::vector<uint32_t> eq;
  view->SelectEqColumns(0, 1, 0, n, &eq);
  std::vector<uint32_t> want_eq;
  for (uint32_t r = 0; r < n; ++r) {
    if (rel.row(r)[0] == rel.row(r)[1]) want_eq.push_back(r);
  }
  EXPECT_EQ(eq, want_eq);
  std::vector<uint32_t> base;
  for (uint32_t r = 0; r < n; r += 3) base.push_back(r);
  view->RefineEqColumns(0, 1, &base);
  want_eq.clear();
  for (uint32_t r = 0; r < n; r += 3) {
    if (rel.row(r)[0] == rel.row(r)[1]) want_eq.push_back(r);
  }
  EXPECT_EQ(base, want_eq);
}

TEST(ColumnViewTest, EnsureColumnsCachesAndInvalidates) {
  Relation rel(Pred("cvcache", 1));
  for (int i = 0; i < 10; ++i) rel.Insert({Term::Int(i)});
  std::shared_ptr<const ColumnView> first = rel.EnsureColumns();
  EXPECT_EQ(rel.EnsureColumns().get(), first.get());  // cached
  rel.Insert({Term::Int(99)});
  std::shared_ptr<const ColumnView> second = rel.EnsureColumns();
  EXPECT_NE(second.get(), first.get());  // invalidated by insert
  EXPECT_EQ(second->rows(), 11u);
  EXPECT_EQ(first->rows(), 10u);  // old snapshot stays valid for holders
  // Clear + refill to the same size must still invalidate.
  rel.Clear();
  for (int i = 0; i < 11; ++i) rel.Insert({Term::Int(100 + i)});
  std::shared_ptr<const ColumnView> third = rel.EnsureColumns();
  EXPECT_EQ(third->value(0, 0), Value(Term::Int(100)));
  // A duplicate (no-op) insert keeps the cache.
  std::shared_ptr<const ColumnView> before_dup = rel.EnsureColumns();
  rel.Insert({Term::Int(100)});
  EXPECT_EQ(rel.EnsureColumns().get(), before_dup.get());
}

TEST(ColumnViewTest, ConcurrentEnsureColumnsYieldsOneView) {
  Relation rel(Pred("cvconc", 2));
  for (int i = 0; i < 2000; ++i) {
    rel.Insert({Term::Int(i % 13), Term::Int(i)});
  }
  std::vector<std::shared_ptr<const ColumnView>> views(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < views.size(); ++t) {
    threads.emplace_back([&rel, &views, t] { views[t] = rel.EnsureColumns(); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& v : views) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v.get(), views[0].get());
    EXPECT_EQ(v->rows(), 2000u);
  }
}

TEST(ColumnViewTest, ColumnsBytesTrackViewLifetime) {
  const int64_t before = storage_metrics::LiveColumnsBytes();
  {
    Relation rel(Pred("cvbytes", 2));
    for (int i = 0; i < 1024; ++i) {
      rel.Insert({Term::Int(i), Term::Sym(i % 2 == 0 ? "p" : "q")});
    }
    std::shared_ptr<const ColumnView> view = rel.EnsureColumns();
    EXPECT_GE(storage_metrics::LiveColumnsBytes(),
              before + static_cast<int64_t>(1024 * 2 * sizeof(uint64_t)));
    EXPECT_EQ(storage_metrics::LiveColumnsBytes() - before, view->ByteSize());
  }
  // Relation destroyed → cache dropped → accounting returns to baseline.
  EXPECT_EQ(storage_metrics::LiveColumnsBytes(), before);
}

}  // namespace
}  // namespace semopt
