// ShardedRouter: N independent element-graph instances ("lanes")
// cloned from one parsed configuration, fed by RSS-style flow sharding
// (FastClick's one-graph-per-core design).
//
// A dispatcher hashes each packet's 5-tuple FlowKey (the splitmix64
// finaliser of std::hash<FlowKey>) to a lane, so every flow lives
// entirely inside one lane and lanes share no mutable element state —
// per-flow order is preserved without any cross-lane synchronisation,
// exactly the property stateful middlebox scaling needs (NFOS-style
// state partitioning). A burst moves one way: partition by RSS hash
// into per-lane sub-bursts, run the busy lanes (inline when only one
// is busy, on the worker pool otherwise; ShardWorkerPool::run_busy),
// and let each lane's ToDevice sink collect its results, which the
// caller concatenates in lane order. A one-lane router is the same
// path with one partition, so it costs what a plain Router costs.
//
// Hot-swap keeps RouterManager's semantics per lane (same-name/
// same-class take_state, lane i -> lane i). reshard(n) changes the
// lane count at runtime: queued packets are drained and re-hashed to
// the lane their flow now maps to, and every other element's state is
// folded into the new lane set with Element::absorb_state (old lane o
// merges into new lane o % n), so Counter totals, flow tables and IDPS
// statistics survive the transition with no packet loss.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "click/router.hpp"
#include "net/packet.hpp"

namespace endbox::click {

/// RSS dispatch: which of `shards` shards handles `key`.
inline std::size_t shard_of(const net::FlowKey& key, std::size_t shards) {
  return shards <= 1 ? 0 : std::hash<net::FlowKey>{}(key) % shards;
}

/// A fixed pool of worker threads running indexed jobs. run(jobs, fn)
/// executes fn(0..jobs-1) across the workers and the calling thread and
/// returns when all jobs finished.
///
/// Hand-off protocol (what makes cross-thread state safe and the pool
/// reusable across reshards):
///  - run() publishes {fn, jobs} under the mutex and wakes the workers;
///    each thread (workers and the caller alike) claims job indices
///    from the shared cursor under the mutex and executes them outside
///    it, so a job index runs exactly once.
///  - The mutex acquire/release pairs order everything a job wrote
///    before everything the caller reads after run() returns — per-job
///    (per-shard) state needs no further synchronisation.
///  - `jobs` may be *smaller* than the worker count: surplus workers
///    find the cursor exhausted and go back to sleep. This is what
///    lets a reshard to a lower shard count keep the existing pool
///    (and its warmed-up threads) instead of tearing it down — only
///    growing beyond worker_count() requires a new pool.
///  - If any job threw, the first exception is rethrown to run()'s
///    caller after the burst fully drains.
class ShardWorkerPool {
 public:
  explicit ShardWorkerPool(std::size_t workers);
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  /// Blocks until every job ran. If any job threw, the first exception
  /// is rethrown here (after the burst fully drains), so element
  /// failures surface to the pushing ecall instead of terminating a
  /// worker thread.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn);

  std::size_t worker_count() const { return threads_.size(); }

  /// The one reuse policy every sharded data plane applies on a
  /// (re)shard: one shard runs inline (no pool), a shrink keeps the
  /// existing pool (surplus workers park, see the hand-off protocol
  /// above), and only growing past worker_count() rebuilds it.
  static void ensure(std::unique_ptr<ShardWorkerPool>& pool, std::size_t shards) {
    if (shards <= 1)
      pool.reset();
    else if (!pool || pool->worker_count() < shards)
      pool = std::make_unique<ShardWorkerPool>(shards);
  }

  /// The one burst rule every lane data plane applies once it has
  /// partitioned a burst: `busy(i)` says whether lane i got work. No
  /// busy lane does nothing; one runs `fn` inline on the caller (no
  /// lock, no wake-up, so a one-lane data plane never touches the
  /// pool); more run on `pool` with the caller participating. `pool`
  /// must exist whenever `lanes` > 1 (ensure's policy).
  template <typename Busy, typename Fn>
  static void run_busy(ShardWorkerPool* pool, std::size_t lanes, Busy&& busy,
                       Fn&& fn) {
    std::size_t count = 0, last = 0;
    for (std::size_t i = 0; i < lanes; ++i) {
      if (!busy(i)) continue;
      ++count;
      last = i;
    }
    if (count == 1) {
      fn(last);
    } else if (count > 1) {
      pool->run(lanes, [&](std::size_t i) {
        if (busy(i)) fn(i);
      });
    }
  }

 private:
  void worker_loop();
  void execute_job(std::unique_lock<std::mutex>& lock, std::size_t job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t next_job_ = 0;
  std::size_t jobs_ = 0;
  std::size_t in_flight_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

class ShardedRouter {
 public:
  /// Builds one Router for shard `shard` from `config_text`. Each shard
  /// must get its own ElementContext (result sink, scratch, pools) so
  /// the graphs share no mutable state; the factory is where the caller
  /// wires that per-shard plumbing.
  using RouterFactory = std::function<Result<std::unique_ptr<Router>>(
      std::size_t shard, const std::string& config_text)>;

  /// Clones `config_text` into `shards` independent graphs. The factory
  /// is retained for hot_swap/reshard.
  static Result<std::unique_ptr<ShardedRouter>> create(
      const std::string& config_text, std::size_t shards, RouterFactory factory);

  std::size_t shard_count() const { return shards_.size(); }
  const std::string& config_text() const { return config_text_; }
  std::uint64_t reshard_count() const { return reshard_count_; }
  /// Threads in the worker pool (0 when running single-shard inline).
  /// After a shrinking reshard this stays at the previous high-water
  /// mark: the pool is reused, not rebuilt (see ShardWorkerPool docs).
  std::size_t worker_threads() const { return pool_ ? pool_->worker_count() : 0; }

  Router& shard(std::size_t i) { return *shards_[i]; }
  const Router& shard(std::size_t i) const { return *shards_[i]; }

  /// The shard this packet's flow is pinned to.
  std::size_t shard_for(const net::Packet& packet) const {
    return shard_of(net::FlowKey::of(packet), shards_.size());
  }

  /// Routes one packet to its flow's shard and pushes it inline (the
  /// calling thread runs the graph). Returns false when the entry
  /// element does not exist.
  bool push_to(const std::string& name, net::Packet&& packet);

  /// Partitions the burst by flow and pushes each lane's sub-burst
  /// into that lane's `name` element, running the busy lanes per
  /// ShardWorkerPool::run_busy. Each lane's ToDevice sink sees its own
  /// packets in arrival order; nothing merges across lanes. The batch
  /// is consumed. Returns false when the entry element does not exist.
  bool push_batch_to(const std::string& name, PacketBatch&& batch);

  /// Hot-swaps every shard to a new configuration, transferring element
  /// state shard-for-shard via take_state (RouterManager semantics).
  /// On failure the old shards keep running.
  Status hot_swap(const std::string& config_text);

  /// Changes the shard count at runtime: rebuilds the graphs, re-hashes
  /// queued packets to the shard their flow now maps to, and folds all
  /// other element state into the new shards via absorb_state (old
  /// shard o merges into new shard o % new_shards). No-op when the
  /// count is unchanged; on failure the old shards keep running.
  Status reshard(std::size_t new_shards);

 private:
  ShardedRouter() = default;

  Result<std::vector<std::unique_ptr<Router>>> build_shards(
      const std::string& config_text, std::size_t shards);
  void adopt(std::vector<std::unique_ptr<Router>> shards);

  RouterFactory factory_;
  std::string config_text_;
  std::vector<std::unique_ptr<Router>> shards_;
  std::vector<PacketBatch> partition_scratch_;  ///< per-lane sub-bursts
  std::unique_ptr<ShardWorkerPool> pool_;       ///< absent for 1 shard
  std::uint64_t reshard_count_ = 0;
};

}  // namespace endbox::click
