#include "quorum/quorum.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::quorum {

QuorumCounterService::QuorumCounterService(sim::Executor& exec,
                                           sgx::AttestationService& ias,
                                           crypto::Drbg rng, uint64_t n) {
  MIG_CHECK_MSG(n >= 3 && n % 2 == 1 && n <= sdk::kMaxQuorumReplicas,
                "quorum needs an odd replica count in [3, 16]");
  // One sealing-key root for the whole membership (see the header's trust
  // note); everything else — signing keys, nonces — forks per replica.
  Bytes kroot = rng.fork(to_bytes("qrm-root")).generate(32);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = i + 1;
    replicas_.push_back(std::make_unique<CounterReplica>(
        id, kroot, ias, rng.fork(to_bytes("qrm-replica-" + std::to_string(id)))));
    links_.push_back(
        std::make_unique<sim::Channel>(exec, sim::default_cost_model()));
  }
  obs::metrics().set_gauge("quorum.replicas", n);
  for (size_t i = 0; i < replicas_.size(); ++i) {
    std::string id = std::to_string(replicas_[i]->id());
    exec.spawn("quorum-dispatch-" + id,
               [this, i](sim::ThreadCtx& ctx) { dispatcher_loop(ctx, i); },
               /*daemon=*/true);
    exec.spawn("quorum-router-" + id,
               [this, i](sim::ThreadCtx& ctx) { router_loop(ctx, i); },
               /*daemon=*/true);
  }
}

sdk::QuorumMembership QuorumCounterService::membership() const {
  sdk::QuorumMembership m;
  for (const auto& r : replicas_) m.members.push_back(r->member());
  return m;
}

// Replica-side message pump: one per replica, modeling the replica process'
// accept loop. PREPAREs spawn a handler thread each (their WAN + IAS round
// trips overlap across concurrent ops); COMMITs run inline so each replica
// applies mutating ops strictly in arrival order.
void QuorumCounterService::dispatcher_loop(sim::ThreadCtx& ctx,
                                           size_t replica_index) {
  CounterReplica& rep = *replicas_[replica_index];
  sim::Channel::End end = links_[replica_index]->b();
  for (;;) {
    Bytes msg = end.recv(ctx);
    if (!rep.available_) continue;  // crashed / partitioned: swallow
    Reader r(msg);
    std::string tag = r.str();
    uint64_t op = r.u64();
    if (!r.ok()) continue;  // corrupted in flight: drop
    if (tag == "QPRP") {
      Bytes request = r.bytes();
      if (!r.finish().ok()) continue;
      ctx.executor().spawn(
          "quorum-r" + std::to_string(rep.id()) + "-op" + std::to_string(op),
          [this, replica_index, op,
           request = std::move(request)](sim::ThreadCtx& tctx) mutable {
            sim::Channel::End reply_end = links_[replica_index]->b();
            replicas_[replica_index]->handle_prepare(tctx, reply_end, op,
                                                     std::move(request));
          },
          /*daemon=*/true);
    } else if (tag == "QCMT") {
      if (!r.finish().ok()) continue;
      rep.handle_commit(ctx, end, op);
    } else if (tag == "QABT") {
      if (!r.finish().ok()) continue;
      rep.handle_abort(op);
    }
    // Unknown tags: drop (defensive against scripted corruption).
  }
}

// Coordinator-side reply pump: parses replica replies defensively and files
// them into the matching pending op's slot. Replies to finished ops (late
// acks after an abort, grants after a timeout) are dropped here.
void QuorumCounterService::router_loop(sim::ThreadCtx& ctx,
                                       size_t replica_index) {
  sim::Channel::End end = links_[replica_index]->a();
  const uint64_t rid = replicas_[replica_index]->id();
  for (;;) {
    Bytes msg = end.recv(ctx);
    Reader r(msg);
    std::string tag = r.str();
    uint64_t op = r.u64();
    if (!r.ok()) continue;
    auto it = pending_.find(op);
    if (it == pending_.end()) continue;
    Pending& p = it->second;
    if (tag == "QACK") {
      uint64_t proposed = r.u64();
      if (!r.finish().ok() || proposed == 0) continue;
      p.acks[rid] = proposed;
    } else if (tag == "QREF") {
      std::string why = r.str();
      if (!r.finish().ok()) continue;
      p.refusals[rid] = std::move(why);
    } else if (tag == "QGRT") {
      Bytes blob = r.bytes();
      if (!r.finish().ok()) continue;
      auto env = sdk::parse_quorum_reply(blob);
      if (!env.ok() || env->records.size() != 1 ||
          env->records[0].replica_id != rid) {
        obs::metrics().add("quorum.dropped_records");
        obs::instant(ctx, "quorum.replica_dropped", "quorum",
                     {{"replica", rid}});
        obs::flight(ctx, "quorum", "dropped_record",
                    "replica " + std::to_string(rid) +
                        " sent a malformed grant record; dropped");
        continue;
      }
      p.grants[rid] = std::move(*env);
    } else {
      continue;
    }
    p.wake->set(ctx);
  }
}

bool QuorumCounterService::root_consistent(sim::ThreadCtx& ctx,
                                           const sdk::QuorumReplyRecord& rec) {
  crypto::Digest root{};
  std::copy(rec.root.begin(), rec.root.end(), root.begin());
  auto& by_size = seen_roots_[rec.replica_id];
  auto [it, inserted] = by_size.try_emplace(rec.tree_size, root);
  if (inserted || it->second == root) return true;
  excluded_.insert(rec.replica_id);
  obs::metrics().add("quorum.equivocations");
  obs::instant(ctx, "quorum.equivocation", "quorum",
               {{"replica", rec.replica_id}, {"size", rec.tree_size}});
  obs::flight(ctx, "quorum", "equivocation",
              "replica " + std::to_string(rec.replica_id) +
                  " signed two different roots for log size " +
                  std::to_string(rec.tree_size) + "; excluded from the quorum");
  return false;
}

void QuorumCounterService::serve_one(sim::ThreadCtx& ctx,
                                     sim::Channel::End end) {
  // Same retire-on-silence contract as the single signer: helper threads
  // whose enclave refused the store command in-enclave never see a request.
  std::optional<Bytes> request_in = end.recv_timeout(ctx, kServeTimeoutNs);
  if (!request_in.has_value()) return;
  Bytes request = std::move(*request_in);
  obs::Span<sim::ThreadCtx> span(ctx, "quorum.serve", "quorum");
  obs::metrics().add("quorum.requests");
  // Peek the verb for observability only — replicas parse (and, being the
  // trusted side, judge) the request themselves.
  auto peeked = sdk::parse_counter_request(request);
  const std::string verb = peeked.ok() ? peeked->verb : "?";

  const uint64_t op = next_op_++;
  const uint64_t quorum = membership().quorum();
  Pending& p = pending_[op];
  p.wake = std::make_unique<sim::Event>(ctx.executor());

  // ---- phase 1: PREPARE fan-out --------------------------------------------
  std::vector<uint64_t> fanned;  // replica ids we asked
  for (size_t i = 0; i < replicas_.size(); ++i) {
    uint64_t rid = replicas_[i]->id();
    if (excluded_.count(rid)) continue;
    Writer w;
    w.str("QPRP");
    w.u64(op);
    w.bytes(request);
    links_[i]->a().send(ctx, w.take());
    fanned.push_back(rid);
  }

  uint64_t winning_counter = 0;
  std::string quorum_refusal;
  bool refused = false;
  uint64_t deadline = ctx.now() + kPhaseTimeoutNs;
  for (;;) {
    std::map<uint64_t, uint64_t> votes;  // proposed counter -> #replicas
    for (const auto& [rid, proposed] : p.acks) votes[proposed]++;
    for (const auto& [proposed, count] : votes)
      if (count >= quorum) winning_counter = proposed;
    if (winning_counter != 0) break;
    std::map<std::string, uint64_t> ref_votes;
    for (const auto& [rid, why] : p.refusals) ref_votes[why]++;
    for (const auto& [why, count] : ref_votes)
      if (count >= quorum) {
        quorum_refusal = why;
        refused = true;
      }
    if (refused) break;
    if (p.acks.size() + p.refusals.size() >= fanned.size()) break;
    p.wake->reset();
    if (!p.wake->wait_until(ctx, deadline)) break;
  }

  auto abort_all = [&]() {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      Writer w;
      w.str("QABT");
      w.u64(op);
      links_[i]->a().send(ctx, w.take());
    }
  };

  if (refused) {
    // f+1 replicas refused for the same reason: forward it in the legacy
    // reply format, which the enclave maps to kPermissionDenied — exactly
    // what the rollback/fork defenses in store_test expect.
    abort_all();
    obs::metrics().add("quorum.refusals");
    obs::instant(ctx, "quorum.refused", "quorum",
                 {{"verb", verb}, {"why", quorum_refusal}});
    obs::flight(ctx, "quorum", "refused", verb + ": " + quorum_refusal);
    pending_.erase(op);
    end.send(ctx, sdk::encode_counter_refusal(quorum_refusal));
    return;
  }
  if (winning_counter == 0) {
    // No f+1 agreement within the deadline: quorum unreachable. Abort so no
    // replica ever applies — the enclave's channel timeout fails the op
    // closed with every counter exactly where it was.
    std::string silent;
    for (uint64_t rid : fanned) {
      if (p.acks.count(rid) || p.refusals.count(rid)) continue;
      silent += (silent.empty() ? "" : ", ") + ("replica " + std::to_string(rid));
    }
    if (silent.empty()) silent = "replies split below quorum";
    abort_all();
    obs::metrics().add("quorum.aborts");
    obs::instant(ctx, "quorum.unreachable", "quorum", {{"verb", verb}});
    obs::flight(ctx, "quorum", "fail_closed",
                "quorum unreachable for " + verb + " (op " +
                    std::to_string(op) + "): no answer from " + silent);
    pending_.erase(op);
    return;
  }

  // ---- phase 2: COMMIT, globally serialized --------------------------------
  // Commits are cheap (no WAN), but their order must match across replicas
  // or concurrent mutating ops could interleave differently on different
  // logs. One commit in flight at a time guarantees that.
  if (!commit_idle_) commit_idle_ = std::make_unique<sim::Event>(ctx.executor());
  while (commit_busy_) {
    commit_idle_->reset();
    commit_idle_->wait(ctx);
  }
  commit_busy_ = true;
  struct CommitRelease {
    QuorumCounterService* s;
    sim::ThreadCtx* ctx;
    ~CommitRelease() {
      s->commit_busy_ = false;
      s->commit_idle_->set(*ctx);
    }
  } release{this, &ctx};

  std::vector<uint64_t> committed;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    uint64_t rid = replicas_[i]->id();
    auto it = p.acks.find(rid);
    bool matched = it != p.acks.end() && it->second == winning_counter;
    Writer w;
    w.str(matched ? "QCMT" : "QABT");
    w.u64(op);
    links_[i]->a().send(ctx, w.take());
    if (matched) committed.push_back(rid);
  }

  std::vector<const sdk::QuorumReplyEnvelope*> matching;
  deadline = ctx.now() + kPhaseTimeoutNs;
  for (;;) {
    matching.clear();
    // Re-derive the matching set each wake-up: grants whose record survives
    // the online root cross-check and agrees on (counter, key_commit) with
    // the winning proposal.
    std::map<Bytes, std::vector<const sdk::QuorumReplyEnvelope*>> by_commit;
    for (const auto& [rid, env] : p.grants) {
      if (excluded_.count(rid)) continue;
      const sdk::QuorumReplyRecord& rec = env.records[0];
      if (rec.counter != winning_counter) continue;
      if (!root_consistent(ctx, rec)) continue;
      by_commit[rec.key_commit].push_back(&env);
    }
    for (auto& [commit, envs] : by_commit)
      if (envs.size() >= quorum) matching = envs;
    if (!matching.empty()) break;
    size_t answered = 0;
    for (uint64_t rid : committed)
      if (p.grants.count(rid) || p.refusals.count(rid)) answered++;
    if (answered >= committed.size())
      break;  // every committed replica answered; no quorum will form
    p.wake->reset();
    if (!p.wake->wait_until(ctx, deadline)) break;
  }

  if (matching.empty()) {
    // Commit-phase refusals (a concurrent op won the race at every replica)
    // also land here when they clear f+1 — forward them; otherwise this is
    // a commit-phase loss (crash mid-commit, Byzantine split) and the op
    // fails closed without a reply.
    std::map<std::string, uint64_t> ref_votes;
    for (const auto& [rid, why] : p.refusals) ref_votes[why]++;
    std::string why;
    for (const auto& [w_, count] : ref_votes)
      if (count >= quorum) why = w_;
    if (!why.empty()) {
      obs::metrics().add("quorum.refusals");
      obs::instant(ctx, "quorum.refused", "quorum",
                   {{"verb", verb}, {"why", why}});
      obs::flight(ctx, "quorum", "refused", verb + ": " + why);
      pending_.erase(op);
      end.send(ctx, sdk::encode_counter_refusal(why));
      return;
    }
    std::string missing;
    for (uint64_t rid : committed) {
      if (p.grants.count(rid)) continue;
      missing +=
          (missing.empty() ? "" : ", ") + ("replica " + std::to_string(rid));
    }
    if (missing.empty()) missing = "grants split below quorum";
    obs::metrics().add("quorum.aborts");
    obs::instant(ctx, "quorum.unreachable", "quorum", {{"verb", verb}});
    obs::flight(ctx, "quorum", "fail_closed",
                "quorum lost at commit for " + verb + " (op " +
                    std::to_string(op) + "): no grant from " + missing);
    pending_.erase(op);
    return;
  }

  // Assemble the f+1-matching envelope and forward it. Only matching
  // records ship — a stale replica's (validly signed) minority record never
  // reaches the enclave.
  sdk::QuorumReplyEnvelope out;
  for (const sdk::QuorumReplyEnvelope* env : matching) {
    out.records.push_back(env->records[0]);
    out.sigs.push_back(env->sigs[0]);
  }
  obs::metrics().add("quorum.grants");
  obs::instant(ctx, "quorum.granted", "quorum",
               {{"verb", verb},
                {"counter", winning_counter},
                {"replies", static_cast<uint64_t>(out.records.size())}});
  pending_.erase(op);
  end.send(ctx, sdk::encode_quorum_reply(out));
}

}  // namespace mig::quorum
