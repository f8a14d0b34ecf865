#include "layer_trace.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

using specomp::net::Message;
using specomp::net::Rank;
using specomp::runtime::Phase;

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::RankBody: return "rank_body";
    case SpanKind::AppCompute: return "app.compute";
    case SpanKind::AppCheck: return "app.check";
    case SpanKind::AppCorrect: return "app.correct";
    case SpanKind::AppCheckpoint: return "app.checkpoint";
    case SpanKind::AppExchange: return "app.exchange";
    case SpanKind::SpecPredict: return "spec.predict";
    case SpanKind::RuntimeTryRecv: return "runtime.try_recv";
    case SpanKind::RuntimeSnapshot: return "runtime.dist_snapshot";
    case SpanKind::RuntimeBlocking: return "runtime.blocking";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::int32_t SpanLog::open(SpanKind kind, int rank) {
  auto& innermost = open_[static_cast<std::size_t>(rank)];
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{kind, rank, now_ns(), 0, innermost});
  innermost = index;
  return index;
}

void SpanLog::close(std::int32_t index) noexcept {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  open_[static_cast<std::size_t>(span.rank)] = span.parent;
}

LayerSplit split_layers(const SpanLog& log, double wall_s, double compute_ops) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;

  LayerSplit split;
  split.wall_s = wall_s;
  split.compute_ops = compute_ops;
  double running_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self_s =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) *
        1e-9;
    split.self_s[static_cast<std::size_t>(spans[i].kind)] += self_s;
    // A blocking call's interval also covers other ranks and the kernel;
    // everything else is this rank running its own code.
    if (spans[i].kind != SpanKind::RuntimeBlocking) running_s += self_s;
  }
  split.outside_s = wall_s - running_s;
  return split;
}

bool write_spans(const std::string& path, const SpanLog& log) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto& spans = log.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans)
    std::fprintf(out,
                 "{\"name\":\"%s\",\"rank\":%d,\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d}\n",
                 span_name(span.kind), span.rank,
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - origin) * 1e-3,
                 span.parent);
  return std::fclose(out) == 0;
}

// ---- TracedCommunicator ----

TracedCommunicator::TracedCommunicator(specomp::runtime::Communicator& inner,
                                       SpanLog& log)
    : inner_(inner), log_(log) {
  set_collective_algo(inner.collective_algo());
  timer_ = inner.timer();
  pushed_iterations_ = timer_.iterations();
}

void TracedCommunicator::flush_timer() {
  while (pushed_iterations_ < timer_.iterations()) {
    inner_.timer().bump_iterations();
    ++pushed_iterations_;
  }
}

template <typename Call>
decltype(auto) TracedCommunicator::forward(SpanKind kind, Call&& call) {
  flush_timer();
  struct Mirror {
    TracedCommunicator& self;
    ~Mirror() {
      self.timer_ = self.inner_.timer();
      self.pushed_iterations_ = self.timer_.iterations();
    }
  } mirror{*this};
  const Scope scope(log_, kind, inner_.rank());
  return std::forward<Call>(call)();
}

void TracedCommunicator::send(Rank dst, int tag,
                              std::vector<std::byte> payload) {
  forward(SpanKind::RuntimeBlocking,
          [&] { inner_.send(dst, tag, std::move(payload)); });
}

bool TracedCommunicator::try_recv(Rank src, int tag, Message& out) {
  return forward(SpanKind::RuntimeTryRecv,
                 [&] { return inner_.try_recv(src, tag, out); });
}

Message TracedCommunicator::recv(Rank src, int tag) {
  return forward(SpanKind::RuntimeBlocking,
                 [&] { return inner_.recv(src, tag); });
}

Message TracedCommunicator::recv_any(int tag) {
  return forward(SpanKind::RuntimeBlocking,
                 [&] { return inner_.recv_any(tag); });
}

bool TracedCommunicator::recv_timeout(Rank src, int tag,
                                      double timeout_seconds, Message& out) {
  return forward(SpanKind::RuntimeBlocking, [&] {
    return inner_.recv_timeout(src, tag, timeout_seconds, out);
  });
}

void TracedCommunicator::barrier() {
  forward(SpanKind::RuntimeBlocking, [&] { inner_.barrier(); });
}

void TracedCommunicator::compute(double ops, Phase phase) {
  forward(SpanKind::RuntimeBlocking, [&] { inner_.compute(ops, phase); });
}

specomp::runtime::DistSnapshot TracedCommunicator::dist_snapshot() const {
  const Scope scope(log_, SpanKind::RuntimeSnapshot, inner_.rank());
  return inner_.dist_snapshot();
}

// ---- TracedApp ----

std::vector<double> TracedApp::pack_local() const {
  const Scope scope(log_, SpanKind::AppExchange, rank_);
  return inner_.pack_local();
}

void TracedApp::install_peer(int peer, std::span<const double> block) {
  const Scope scope(log_, SpanKind::AppExchange, rank_);
  inner_.install_peer(peer, block);
}

void TracedApp::compute_step() {
  const Scope scope(log_, SpanKind::AppCompute, rank_);
  inner_.compute_step();
}

double TracedApp::compute_ops() const {
  const double ops = inner_.compute_ops();
  billed_ops_ += ops;
  return ops;
}

double TracedApp::speculation_error(int peer,
                                    std::span<const double> speculated,
                                    std::span<const double> actual) {
  const Scope scope(log_, SpanKind::AppCheck, rank_);
  return inner_.speculation_error(peer, speculated, actual);
}

bool TracedApp::correct_last_step(int peer, std::span<const double> actual) {
  const Scope scope(log_, SpanKind::AppCorrect, rank_);
  return inner_.correct_last_step(peer, actual);
}

std::vector<double> TracedApp::save_state() const {
  const Scope scope(log_, SpanKind::AppCheckpoint, rank_);
  return inner_.save_state();
}

void TracedApp::restore_state(std::span<const double> state) {
  const Scope scope(log_, SpanKind::AppCheckpoint, rank_);
  inner_.restore_state(state);
}

// ---- TracedSpeculator ----

std::vector<double> TracedSpeculator::predict(
    const specomp::spec::History& history, int steps) const {
  const Scope scope(log_, SpanKind::SpecPredict, rank_);
  return inner_->predict(history, steps);
}

}  // namespace perfbench
