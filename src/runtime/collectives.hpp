// Collective operations built from point-to-point messages.
//
// PVM programs of the paper's era composed collectives from sends and
// receives; these helpers do the same over the Communicator API, so they
// run unchanged on the simulated and the real-thread backend and their
// traffic is charged through the same channel models.  All ranks must call
// the same collective with the same root, tag and algorithm.
//
// Two algorithm families sit behind the CollectiveAlgo selector
// (runtime/collective_algo.hpp):
//
//   * Flat — the linear fan-in/fan-out the paper's PVM codes used: the root
//     exchanges one message per peer, so both latency and the root's message
//     count grow linearly in p (flat allgather is the full all-to-all:
//     p(p-1) messages).
//   * Tree — switched-cluster algorithms: binomial-tree broadcast/gather
//     (p-1 messages over ceil(log2 p) rounds), recursive-doubling allreduce
//     (O(p log p) messages, O(log p) rounds), and allgather as binomial
//     gather + broadcast.  Correct at any p, including non-powers of two.
//
// Determinism: reductions fold contributions in ascending rank order on
// every algorithm (the tree allreduce moves *values*, not partial sums), so
// flat and tree produce bit-identical results for non-associative folds like
// floating-point sum.
//
// Telemetry: collective traffic flows through the ordinary send/recv paths,
// so every hop is counted in the run's ChannelStats (SimResult, and the run
// report's `network` block) and emits the usual causal Send/Recv trace
// edges — spectrace critical paths attribute collective hops like any other
// message.
#pragma once

#include <span>
#include <vector>

#include "runtime/collective_algo.hpp"
#include "runtime/communicator.hpp"

namespace specomp::runtime {

/// Gathers each rank's block at `root` (result indexed by rank; only the
/// root's return value is populated — other ranks get an empty vector).
std::vector<std::vector<double>> gather(Communicator& comm, net::Rank root,
                                        std::span<const double> local, int tag,
                                        CollectiveAlgo algo = CollectiveAlgo::Auto);

/// Broadcasts `data` from `root` to every rank (in place on non-roots).
void broadcast(Communicator& comm, net::Rank root, std::vector<double>& data,
               int tag, CollectiveAlgo algo = CollectiveAlgo::Auto);

/// Every rank ends with every rank's block (result indexed by rank).  This
/// is the exchange pattern of the synchronous iterative algorithms (each
/// rank's block to all peers); flat is the paper's p(p-1)-message
/// all-to-all, tree routes blocks through a binomial gather + broadcast.
std::vector<std::vector<double>> allgather(Communicator& comm,
                                           std::span<const double> local,
                                           int tag,
                                           CollectiveAlgo algo = CollectiveAlgo::Auto);

/// Sum / max of one double across all ranks; every rank gets the result.
/// Folds in ascending rank order on every algorithm (bit-identical results
/// between Flat and Tree).
double allreduce_sum(Communicator& comm, double value, int tag,
                     CollectiveAlgo algo = CollectiveAlgo::Auto);
double allreduce_max(Communicator& comm, double value, int tag,
                     CollectiveAlgo algo = CollectiveAlgo::Auto);

/// Dissemination barrier over point-to-point messages: ceil(log2 p) rounds,
/// one send + one recv per rank per round (p * ceil(log2 p) messages).
/// Unlike Communicator::barrier()'s Flat path (a world-level primitive that
/// costs no virtual time), this charges real send overhead and channel
/// delays — it is what barrier() executes when the backend resolves its
/// configured algorithm to Tree.  `tag` must not collide with application
/// tags; backends use kBarrierTag.
void dissemination_barrier(Communicator& comm, int tag);

/// Reserved tag for backend-issued barrier rounds, far above the tag ranges
/// the engine and the apps use (engine tags are base + iteration).
inline constexpr int kBarrierTag = 0x7eb00000;

}  // namespace specomp::runtime
