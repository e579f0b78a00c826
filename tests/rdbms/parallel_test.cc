#include "rdbms/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rdbms/executor.h"
#include "telemetry/activity.h"

namespace fsdm::rdbms {
namespace {

/// One child emitting `count` rows (base, base+1, ...) so merged output
/// order is checkable.
OperatorPtr NumberSource(int64_t base, int64_t count) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < count; ++i) {
    rows.push_back({Value::Int64(base + i)});
  }
  return Values(Schema({"N"}), std::move(rows));
}

std::vector<int64_t> DrainInts(Operator* op) {
  auto rows = Collect(op);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<int64_t> out;
  if (rows.ok()) {
    for (const Row& row : rows.value()) out.push_back(row[0].AsInt64());
  }
  return out;
}

TEST(WorkerPoolTest, DefaultWorkerCountIsClamped) {
  size_t n = WorkerPool::DefaultWorkerCount();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

TEST(WorkerPoolTest, SubmitRunsTasksAndResizeSurvives) {
  WorkerPool& pool = WorkerPool::Global();
  pool.Resize(2);
  EXPECT_EQ(pool.worker_count(), 2u);

  std::atomic<int> ran{0};
  std::atomic<bool> worker_index_ok{true};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      int w = WorkerPool::CurrentWorkerIndex();
      if (w < 0 || w >= 2) worker_index_ok = false;
      ran.fetch_add(1);
    });
  }
  // Resize joins the outstanding queue before relaunching, so all 32
  // tasks have run by the time it returns.
  pool.Resize(4);
  EXPECT_EQ(ran.load(), 32);
  EXPECT_TRUE(worker_index_ok.load());
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST(WorkerPoolTest, CurrentWorkerIndexIsMinusOneOffPool) {
  EXPECT_EQ(WorkerPool::CurrentWorkerIndex(), -1);
}

TEST(ParallelUnionTest, PreservesChildOrderExactly) {
  // The parallel drain must return byte-identical output to a sequential
  // UnionAll: child 0's rows first, in child 0's order, then child 1's...
  std::vector<OperatorPtr> par_children, seq_children;
  for (int64_t c = 0; c < 8; ++c) {
    par_children.push_back(NumberSource(c * 100, 25));
    seq_children.push_back(NumberSource(c * 100, 25));
  }
  auto par = ParallelUnionAll(std::move(par_children));
  auto seq = UnionAll(std::move(seq_children));
  EXPECT_EQ(DrainInts(par.get()), DrainInts(seq.get()));
}

TEST(ParallelUnionTest, SingleChildAndEmptyChildren) {
  auto one = ParallelUnionAll([] {
    std::vector<OperatorPtr> cs;
    cs.push_back(NumberSource(7, 3));
    return cs;
  }());
  EXPECT_EQ(DrainInts(one.get()), (std::vector<int64_t>{7, 8, 9}));

  // Children that emit nothing still merge cleanly.
  std::vector<OperatorPtr> empties;
  empties.push_back(NumberSource(0, 0));
  empties.push_back(NumberSource(0, 0));
  auto none = ParallelUnionAll(std::move(empties));
  EXPECT_TRUE(DrainInts(none.get()).empty());
}

TEST(ParallelUnionTest, ReOpenReplaysFromScratch) {
  std::vector<OperatorPtr> children;
  children.push_back(NumberSource(1, 4));
  children.push_back(NumberSource(10, 4));
  auto op = ParallelUnionAll(std::move(children));
  std::vector<int64_t> first = DrainInts(op.get());
  std::vector<int64_t> second = DrainInts(op.get());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 8u);
}

TEST(ParallelUnionTest, OnMorselDoneSeesEveryChildWithWorkerId) {
  std::vector<std::atomic<int>> workers(6);
  for (auto& w : workers) w = -2;  // sentinel: callback never ran
  std::vector<OperatorPtr> children;
  for (int64_t c = 0; c < 6; ++c) children.push_back(NumberSource(c, 5));
  auto op = ParallelUnionAll(
      std::move(children),
      [&](size_t child, int worker) { workers[child] = worker; });
  EXPECT_EQ(DrainInts(op.get()).size(), 30u);
  size_t max_w = WorkerPool::Global().worker_count();
  for (const auto& w : workers) {
    EXPECT_GE(w.load(), 0);
    EXPECT_LT(static_cast<size_t>(w.load()), max_w);
  }
}

TEST(ParallelUnionTest, ErrorInOneChildSurfacesFromDrain) {
  // A child whose Open fails: Values can't fail, so use a probe operator.
  class FailingOp final : public Operator {
   public:
    FailingOp() { schema_ = Schema({"N"}); }
    Status Open() override { return Status::Internal("boom"); }
    Result<bool> Next(Row*) override { return false; }
    void Close() override {}
  };
  std::vector<OperatorPtr> children;
  children.push_back(NumberSource(0, 3));
  children.push_back(std::make_unique<FailingOp>());
  children.push_back(NumberSource(10, 3));
  auto op = ParallelUnionAll(std::move(children));
  auto rows = Collect(op.get());
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("boom"), std::string::npos);
}

TEST(ParallelUnionTest, ResizeWhileQueriesDrainKeepsOrderAndNoDanglingActivity) {
  // ISSUE 7 satellite: shrink and grow the pool while parallel queries are
  // draining on other threads. Every drain must still return its children's
  // rows in child order with valid worker stamps, and once the drains
  // finish no activity record may be left active (the RAII leases released
  // on every path).
  WorkerPool& pool = WorkerPool::Global();
  pool.Resize(4);

  constexpr int kDrivers = 3;
  constexpr int kIters = 12;
  std::atomic<bool> order_ok{true};
  std::atomic<bool> workers_ok{true};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int it = 0; it < kIters; ++it) {
        std::vector<OperatorPtr> children;
        std::atomic<int> stamped{0};
        for (int64_t c = 0; c < 6; ++c) {
          children.push_back(ActivityScope(
              NumberSource(c * 100, 20), "RESIZE_" + std::to_string(d),
              "values", "morsel.drain", "q", static_cast<int>(c)));
        }
        auto op = ParallelUnionAll(
            std::move(children), [&](size_t, int worker) {
              if (worker < 0) workers_ok = false;
              stamped.fetch_add(1);
            });
        std::vector<int64_t> got = DrainInts(op.get());
        std::vector<int64_t> want;
        for (int64_t c = 0; c < 6; ++c) {
          for (int64_t i = 0; i < 20; ++i) want.push_back(c * 100 + i);
        }
        if (got != want) order_ok = false;
        if (stamped.load() != 6) workers_ok = false;
      }
    });
  }
  // Churn the pool size under the drains: each Resize drains the queue,
  // joins the old workers and relaunches — drains in flight must ride
  // through the worker-index reshuffle.
  for (size_t w : {2u, 6u, 1u, 4u}) {
    pool.Resize(w);
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_TRUE(order_ok.load());
  EXPECT_TRUE(workers_ok.load());
  pool.Resize(4);  // final barrier: everything submitted has run
  EXPECT_EQ(telemetry::ActivityRegistry::Global().ActiveCount(), 0u);
}

TEST(ParallelUnionTest, ActivityScopeForwardsRowsAndReleasesOnOpenFailure) {
  // Transparent wrapper: same rows, same schema.
  auto wrapped = ActivityScope(NumberSource(5, 3), "COLL", "values",
                               "morsel.drain", "q", /*shard=*/0);
  EXPECT_EQ(wrapped->schema().columns(), std::vector<std::string>{"N"});
  EXPECT_EQ(DrainInts(wrapped.get()), (std::vector<int64_t>{5, 6, 7}));
  EXPECT_EQ(telemetry::ActivityRegistry::Global().ActiveCount(), 0u);

  // A child whose Open fails never sees Close(); the scope must release
  // its lease on that path too (ISSUE 7 satellite f).
  class FailingOp final : public Operator {
   public:
    FailingOp() { schema_ = Schema({"N"}); }
    Status Open() override { return Status::Internal("open-fail"); }
    Result<bool> Next(Row*) override { return false; }
    void Close() override {}
  };
  auto failing = ActivityScope(std::make_unique<FailingOp>(), "COLL",
                               "values", "morsel.drain", "q", 0);
  EXPECT_FALSE(failing->Open().ok());
  EXPECT_EQ(telemetry::ActivityRegistry::Global().ActiveCount(), 0u);

  // An abandoned drain (Open ok, no Close) releases via the destructor.
  {
    auto abandoned = ActivityScope(NumberSource(0, 2), "COLL", "values",
                                   "morsel.drain", "q", 0);
    ASSERT_TRUE(abandoned->Open().ok());
    EXPECT_EQ(telemetry::ActivityRegistry::Global().ActiveCount(), 1u);
  }
  EXPECT_EQ(telemetry::ActivityRegistry::Global().ActiveCount(), 0u);
}

}  // namespace
}  // namespace fsdm::rdbms
