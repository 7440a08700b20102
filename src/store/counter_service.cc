#include "store/counter_service.h"

#include "crypto/hmac.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "sgx/attested_dh.h"
#include "util/serde.h"

namespace mig::store {

// ------------------------------------------------------------- CounterCore

Bytes CounterCore::key_for(ByteSpan mrenclave, uint64_t counter) const {
  Writer info;
  info.raw(mrenclave);
  info.u64(counter);
  return crypto::hkdf(to_bytes("store-counter"), kroot_, info.data(), 32);
}

uint64_t CounterCore::counter(ByteSpan mrenclave) const {
  auto it = counters_.find(Bytes(mrenclave.begin(), mrenclave.end()));
  return it == counters_.end() ? 1 : it->second;
}

CounterCore::Outcome CounterCore::peek(std::string_view verb,
                                       uint64_t counter_arg,
                                       ByteSpan mrenclave) const {
  Outcome out;
  uint64_t current = counter(mrenclave);
  if (verb == "SEALGRANT") {
    out.granted = true;
    out.counter = current;
  } else if (verb == "OPENGRANT") {
    if (counter_arg != current) {
      out.refusal = "stale snapshot counter";
      return out;
    }
    out.granted = true;
    out.counter = current + 1;
    out.mutating = true;
  } else if (verb == "ADVANCE") {
    if (counter_arg != 0 && counter_arg != current) {
      out.refusal = "stale counter epoch";
      return out;
    }
    out.granted = true;
    out.counter = current + 1;
    out.mutating = true;
  } else {
    out.refusal = "unknown verb";
  }
  return out;
}

CounterCore::Outcome CounterCore::apply(std::string_view verb,
                                        uint64_t counter_arg,
                                        ByteSpan mrenclave) {
  Outcome out;
  Bytes id(mrenclave.begin(), mrenclave.end());
  auto [it, created] = counters_.try_emplace(std::move(id), 1);
  uint64_t& current = it->second;
  if (verb == "SEALGRANT") {
    // Key for the current value; the counter does not move. The reply also
    // tells a stale fork that the world moved on (it compares against its
    // in-enclave epoch and self-destroys).
    out.granted = true;
    out.counter = current;
    out.key = key_for(it->first, current);
  } else if (verb == "OPENGRANT") {
    if (counter_arg != current) {
      out.refusal = "stale snapshot counter";
      return out;
    }
    // The restore consumes the epoch: key for c, counter moves to c+1, and
    // the restored instance records c+1 as its epoch.
    out.key = key_for(it->first, current);
    current += 1;
    out.granted = true;
    out.counter = current;
    out.mutating = true;
  } else if (verb == "ADVANCE") {
    if (counter_arg != 0 && counter_arg != current) {
      out.refusal = "stale counter epoch";
      return out;
    }
    current += 1;
    out.granted = true;
    out.counter = current;
    out.mutating = true;
  } else {
    out.refusal = "unknown verb";
  }
  return out;
}

// ---------------------------------------------------------- CounterService

CounterService::CounterService(sgx::AttestationService& ias, crypto::Drbg rng)
    : ias_(&ias), rng_(std::move(rng)) {
  crypto::Drbg sig_rng = rng_.fork(to_bytes("ctr-sig"));
  sig_ = crypto::sig_keygen(sig_rng);
  core_ = CounterCore(rng_.fork(to_bytes("ctr-root")).generate(32));
}

uint64_t CounterService::counter(const crypto::Digest& mrenclave) const {
  return core_.counter(ByteSpan(mrenclave));
}

void CounterService::serve_one(sim::ThreadCtx& ctx, sim::Channel::End end) {
  // Bounded wait: helper threads serving an enclave that refuses its store
  // command in-enclave (self-destroyed fence, rejected envelope) never see a
  // request at all — they must retire instead of parking forever.
  std::optional<Bytes> request_in = end.recv_timeout(ctx, kServeTimeoutNs);
  if (!request_in.has_value()) return;
  Bytes request = std::move(*request_in);
  if (!available_) {
    // Outage model: the request is lost, no reply ever comes. The enclave's
    // channel timeout makes the store operation fail closed.
    obs::instant(ctx, "store.counter.dropped", "store");
    obs::flight(ctx, "store.counter", "dropped",
                "service unavailable; request swallowed");
    return;
  }
  // Acquire the serve token: one request at a time end to end, the way a
  // real HSM-backed counter box behaves. Taken only once a request is
  // actually in hand, so idle helper threads never hold the box.
  if (!idle_) idle_ = std::make_unique<sim::Event>(ctx.executor());
  uint64_t queued_at = ctx.now();
  while (busy_) {
    idle_->reset();
    idle_->wait(ctx);
  }
  busy_ = true;
  queue_wait_ns_ += ctx.now() - queued_at;
  obs::metrics().set_gauge("store.counter.queue_wait_ns", queue_wait_ns_);
  // Token held for the rest of the serve, including the error exits.
  struct TokenRelease {
    CounterService* s;
    sim::ThreadCtx* ctx;
    ~TokenRelease() {
      s->busy_ = false;
      s->idle_->set(*ctx);
    }
  } release{this, &ctx};

  obs::Span<sim::ThreadCtx> span(ctx, "store.counter.serve", "store");
  obs::metrics().add("store.counter.requests");
  auto refuse = [&](std::string why) {
    obs::instant(ctx, "store.counter.refused", "store", {{"why", why}});
    obs::metrics().add("store.counter.refusals");
    obs::flight(ctx, "store.counter", "refused", why);
    end.send(ctx, sdk::encode_counter_refusal(why));
  };
  auto req = sdk::parse_counter_request(request);
  if (!req.ok()) return refuse("malformed");
  const std::string& verb = req->verb;

  const sim::CostModel& cm = sim::default_cost_model();
  auto verdict = sgx::check_quote(ctx, *ias_, rng_, cm.wan_latency_ns,
                                  req->quote, req->dh_pub);
  if (!verdict.ok()) return refuse(verdict.status().message());

  CounterCore::Outcome out =
      core_.apply(verb, req->counter_arg, ByteSpan(verdict->mrenclave));
  if (!out.granted) return refuse(out.refusal);
  if (verb == "ADVANCE") {
    obs::metrics().add("store.counter.advances");
  } else {
    obs::metrics().add("store.counter.grants");
  }
  audit_.push_back(
      CounterAuditEntry{verb, verdict->mrenclave, out.counter, ctx.now()});
  obs::instant(ctx, "store.counter.granted", "store",
               {{"verb", verb}, {"counter", out.counter}});

  auto answer = sgx::dh_answer(
      rng_, [&ctx](uint64_t ns) { ctx.work(ns); },
      sgx::DhCost::remote(cm), "ctr-channel", req->dh_pub, out.key);
  if (!answer.ok()) return refuse("degenerate DH value");
  sdk::CounterGrantReply reply{"CTRGRANT", out.counter, std::move(answer->pub),
                               std::move(answer->sealed), {}};

  // Sign the whole transcript. dh_pub_e is fresh per request, so the
  // signature doubles as the anti-replay binding: a recorded CTRGRANT for an
  // old counter value verifies against no other request.
  ctx.work(cm.sig_sign_ns);
  reply.sig = crypto::sig_sign(
      sig_.sk, sdk::counter_grant_transcript(verb, req->dh_pub, reply), rng_);
  end.send(ctx, sdk::encode_counter_grant(reply));
}

}  // namespace mig::store
