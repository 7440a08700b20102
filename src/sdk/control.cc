#include "sdk/control.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "crypto/ciphers.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sgx/attested_dh.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/iovec.h"
#include "util/serde.h"
#include "util/spsc_ring.h"

namespace mig::sdk {

ControlReply ControlMailbox::post(sim::ThreadCtx& ctx, ControlCmd cmd) {
  // Multiple host threads may target one mailbox (e.g. every migrating
  // process fetches from the same agent enclave): serialize them, blocking
  // on an event rather than polling.
  while (busy_) {
    free_.reset();
    free_.wait(ctx);
  }
  busy_ = true;
  cmd_ = std::move(cmd);
  reply_ready_.reset();
  cmd_ready_.set(ctx);
  reply_ready_.wait(ctx);
  MIG_CHECK(reply_.has_value());
  ControlReply out = std::move(*reply_);
  reply_.reset();
  busy_ = false;
  free_.set(ctx);
  return out;
}

ControlCmd ControlMailbox::wait_cmd(sim::ThreadCtx& ctx) {
  cmd_ready_.wait(ctx);
  cmd_ready_.reset();
  MIG_CHECK(cmd_.has_value());
  ControlCmd out = std::move(*cmd_);
  cmd_.reset();
  return out;
}

void ControlMailbox::reply(sim::ThreadCtx& ctx, ControlReply reply) {
  reply_ = std::move(reply);
  reply_ready_.set(ctx);
}

uint64_t true_cssa_from_flags(uint64_t local_flag, uint64_t cssa_eenter) {
  // §IV-C: local flag free <=> EENTER/EEXIT balanced <=> AEX/ERESUME
  // balanced <=> CSSA == 0. Local flag spin <=> the thread is outside the
  // enclave with one unmatched AEX <=> CSSA == CSSA_EENTER + 1.
  if (local_flag == kFlagSpin) return cssa_eenter + 1;
  return 0;
}

namespace {

// ---- in-control-thread state shared between kRestore and kFinishRestore ----
struct WorkerSnapshot {
  uint64_t local_flag = 0;
  uint64_t cssa_eenter = 0;
  uint64_t true_cssa = 0;
  Bytes tls_page;
  std::vector<Bytes> ssa_frames;  // frames [0, true_cssa-1)
};

struct Checkpoint {
  std::vector<WorkerSnapshot> workers;
  Bytes meta_page;
  Bytes data_region;
  Bytes heap_region;
};

struct RestoreState {
  bool active = false;
  Checkpoint ckpt;
};

// The control-thread engine. Everything in this class conceptually executes
// inside the enclave; its only communication with the outside is the
// mailbox, network channels (ciphertext/public values) and the quote relay.
class ControlEngine {
 public:
  ControlEngine(EnclaveEnv& env, ControlDeps& deps)
      : env_(&env), deps_(&deps), l_(&env.layout()) {}

  ControlReply handle(ControlCmd& cmd) {
    switch (cmd.type) {
      case ControlCmd::Type::kProvision: return provision(cmd);
      case ControlCmd::Type::kPrepareCheckpoint: return prepare(cmd);
      case ControlCmd::Type::kServeKey: return serve_key(cmd);
      case ControlCmd::Type::kCancelMigration: return cancel(cmd);
      case ControlCmd::Type::kRestore: return restore(cmd);
      case ControlCmd::Type::kFinishRestore: return finish_restore(cmd);
      case ControlCmd::Type::kOwnerCheckpoint: return owner_checkpoint(cmd);
      case ControlCmd::Type::kOwnerRestore: return owner_restore(cmd);
      case ControlCmd::Type::kAgentFetchKey: return agent_fetch_key(cmd);
      case ControlCmd::Type::kAgentServeLocal: return agent_serve_local(cmd);
      case ControlCmd::Type::kStoreSnapshot: return store_snapshot(cmd);
      case ControlCmd::Type::kStoreRestore: return store_restore(cmd);
      case ControlCmd::Type::kAdvanceCounter: return advance_counter(cmd);
      case ControlCmd::Type::kDumpBaseline: return dump_baseline(cmd);
      case ControlCmd::Type::kDumpDelta: return dump_delta(cmd);
      case ControlCmd::Type::kServePages: return serve_pages(cmd);
      case ControlCmd::Type::kApplyPages: return apply_pages(cmd);
      case ControlCmd::Type::kAbortPostcopy: return abort_postcopy(cmd);
      case ControlCmd::Type::kNaiveDump: return naive_dump(cmd);
      case ControlCmd::Type::kShutdown: return {};
    }
    return {Error(ErrorCode::kInvalidArgument, "unknown command"), {}, {}};
  }

 private:
  // ---- small helpers -------------------------------------------------------
  ControlReply fail(ErrorCode code, std::string msg) {
    return {Error(code, std::move(msg)), {}, {}};
  }

  uint64_t num_workers() const { return l_->params.num_workers; }

  bool self_destroyed() { return env_->read_u64(kOffSelfDestroyed) == 1; }

  crypto::Digest own_mrenclave() {
    auto rep = env_->ereport(sgx::TargetInfo{}, {});
    MIG_CHECK(rep.ok());
    return rep->mrenclave;
  }

  crypto::Digest own_mrsigner() {
    auto rep = env_->ereport(sgx::TargetInfo{}, {});
    MIG_CHECK(rep.ok());
    return rep->mrsigner;
  }

  Bytes config_blob(int index) {
    Bytes page = env_->read_bytes(l_->config_off, sgx::kPageSize);
    return read_config_blob(page, index);
  }

  crypto::BigNum embedded_identity_pk() {
    return crypto::BigNum::from_bytes(config_blob(0));
  }
  crypto::BigNum embedded_ias_pk() {
    return crypto::BigNum::from_bytes(config_blob(2));
  }
  // Counter-service verification key (config blob 3); empty when the image
  // was built without one — every store command then fails closed.
  Bytes embedded_counter_pk_blob() { return config_blob(3); }

  // Pinned quorum membership (config blob 4, QMB1); non-empty switches every
  // store command to quorum mode: f+1 matching signed replies required, and
  // single-signer CTRGRANTs are rejected outright (anti-downgrade).
  Bytes embedded_quorum_membership_blob() { return config_blob(4); }

  void wan_round_trip() { env_->ctx().sleep(2 * env_->cost().wan_latency_ns); }

  // Handshake compute goes through EnclaveEnv::work, which keeps the AEX
  // accounting.
  sgx::Charge charge() {
    return [this](uint64_t ns) { env_->work(ns); };
  }

  // Initiator half of a remote attested handshake: a fresh DH value and a
  // quote binding it.
  struct QuotedDh {
    sgx::DhInitiator dh;
    Bytes quote;
  };
  Result<QuotedDh> quoted_dh() {
    sgx::DhInitiator dh(deps_->rng, charge(),
                        sgx::DhCost::remote(env_->cost()));
    MIG_ASSIGN_OR_RETURN(sgx::Report report,
                         env_->ereport(deps_->qe->target_info(), dh.binding()));
    MIG_ASSIGN_OR_RETURN(sgx::Quote quote,
                         deps_->qe->quote(env_->ctx(), report));
    return QuotedDh{std::move(dh), quote.serialize()};
  }

  // Arena health for the perf dashboards: recycle rate ~1 means the hot
  // paths run allocation-free in steady state.
  void publish_pool_metrics() {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    m.set_gauge("pool.page.allocations", page_pool_.allocations());
    m.set_gauge("pool.page.reuses", page_pool_.reuses());
    m.set_gauge("pool.page.high_water", page_pool_.high_water());
  }

  // ---- two-phase checkpointing (§IV-B) -------------------------------------
  // Phase one: set the global flag and wait until every worker thread is at
  // the quiescent point (local flag free or spin). Phase two: dump.
  void reach_quiescent_point() {
    env_->write_u64(kOffGlobalFlag, 1);
    for (;;) {
      bool quiescent = true;
      for (uint64_t i = 0; i < num_workers(); ++i) {
        uint64_t flag = env_->read_u64(l_->tls_offset(i) + kTlLocalFlag);
        if (flag == kFlagBusy) {
          quiescent = false;
          break;
        }
      }
      if (quiescent) return;
      env_->work(500);
    }
  }

  // Page-granular dump: every page costs traversal time *as it is read*, so
  // in virtual time the dump genuinely overlaps whatever else runs — which
  // is precisely what the §IV-A consistency attack exploits when the
  // quiescence protocol is skipped (kNaiveDump).
  uint64_t charge_page_dump() {
    // The chunked pipeline charges dump traversal per *chunk* inside the
    // pipeline instead (stage 1), so it can overlap sealing in virtual time;
    // by then the quiescent point has been reached, so per-page cost
    // placement no longer affects what the dump can observe.
    if (charge_dump_)
      env_->work(sim::per_byte_x100(
          env_->cost().checkpoint_dump_ns_per_byte_x100, sgx::kPageSize));
    return sgx::kPageSize;
  }

  Result<Bytes> dump_region(uint64_t off, uint64_t pages) {
    Bytes out;
    out.reserve(pages * sgx::kPageSize);
    for (uint64_t p = 0; p < pages; ++p) {
      Bytes page;
      Status st = env_->try_read_bytes(off + p * sgx::kPageSize,
                                       sgx::kPageSize, page);
      if (!st.ok()) {
        // §IV-B: "If having executable, writable and non-readable permission,
        // one EPC page cannot be migrated because the control thread cannot
        // read its content. This is a limitation of our solution in SGX v1."
        return Error(ErrorCode::kPermissionDenied,
                     "enclave has a non-readable (W+X) page; cannot be "
                     "migrated under SGXv1 (" + st.message() + ")");
      }
      append(out, page);
      charge_page_dump();
    }
    return out;
  }

  std::vector<WorkerSnapshot> capture_workers() {
    std::vector<WorkerSnapshot> out;
    for (uint64_t i = 0; i < num_workers(); ++i) {
      WorkerSnapshot w;
      uint64_t tls = l_->tls_offset(i);
      w.local_flag = env_->read_u64(tls + kTlLocalFlag);
      w.cssa_eenter = env_->read_u64(tls + kTlCssaEenter);
      w.true_cssa = true_cssa_from_flags(w.local_flag, w.cssa_eenter);
      w.tls_page = env_->read_bytes(tls, sgx::kPageSize);
      charge_page_dump();
      // Lower SSA frames hold real interrupted contexts; the top frame of a
      // spinning thread is reconstructed on restore.
      for (uint64_t f = 0; f + 1 < w.true_cssa; ++f) {
        w.ssa_frames.push_back(env_->read_bytes(
            l_->ssa_offset(i) + f * sgx::kPageSize, sgx::kPageSize));
        charge_page_dump();
      }
      out.push_back(std::move(w));
    }
    return out;
  }

  Result<Checkpoint> capture() {
    Checkpoint c;
    c.workers = capture_workers();
    c.meta_page = env_->read_bytes(0, sgx::kPageSize);
    charge_page_dump();
    MIG_ASSIGN_OR_RETURN(c.data_region,
                         dump_region(l_->data_off, l_->params.data_pages));
    MIG_ASSIGN_OR_RETURN(c.heap_region,
                         dump_region(l_->heap_off, l_->params.heap_pages));
    return c;
  }

  static void write_workers(Writer& w,
                            const std::vector<WorkerSnapshot>& workers) {
    w.u64(workers.size());
    for (const WorkerSnapshot& ws : workers) {
      w.u64(ws.local_flag);
      w.u64(ws.cssa_eenter);
      w.u64(ws.true_cssa);
      w.bytes(ws.tls_page);
      w.u64(ws.ssa_frames.size());
      for (const Bytes& f : ws.ssa_frames) w.bytes(f);
    }
  }

  static Result<std::vector<WorkerSnapshot>> read_workers(Reader& r) {
    std::vector<WorkerSnapshot> out;
    uint64_t n = r.u64();
    if (!r.ok() || n > 1024)
      return Error(ErrorCode::kInvalidArgument, "absurd worker count");
    for (uint64_t i = 0; i < n; ++i) {
      WorkerSnapshot w;
      w.local_flag = r.u64();
      w.cssa_eenter = r.u64();
      w.true_cssa = r.u64();
      w.tls_page = r.bytes();
      uint64_t frames = r.u64();
      if (!r.ok() || frames > kNssa)
        return Error(ErrorCode::kInvalidArgument, "bad frames");
      for (uint64_t f = 0; f < frames; ++f) w.ssa_frames.push_back(r.bytes());
      out.push_back(std::move(w));
    }
    return out;
  }

  static Bytes serialize_checkpoint(const Checkpoint& c) {
    Writer w;
    write_workers(w, c.workers);
    w.bytes(c.meta_page);
    w.bytes(c.data_region);
    w.bytes(c.heap_region);
    return w.take();
  }

  static Result<Checkpoint> parse_checkpoint(ByteSpan outer) {
    // Outer wrapper: length-prefixed body + optional random padding
    // (§VII-A: the blob size need not reflect the enclave's memory usage).
    Reader ro(outer);
    Bytes body = ro.bytes();
    if (!ro.ok())
      return Error(ErrorCode::kInvalidArgument, "malformed checkpoint");
    Reader r(body);
    Checkpoint c;
    MIG_ASSIGN_OR_RETURN(c.workers, read_workers(r));
    c.meta_page = r.bytes();
    c.data_region = r.bytes();
    c.heap_region = r.bytes();
    MIG_RETURN_IF_ERROR(r.finish());
    return c;
  }

  Bytes checkpoint_plaintext(const Checkpoint& c, uint64_t pad_to_multiple) {
    Bytes body = serialize_checkpoint(c);
    Writer w;
    w.bytes(body);
    if (pad_to_multiple > 0) {
      uint64_t total = w.data().size();
      uint64_t padded = (total + pad_to_multiple - 1) / pad_to_multiple *
                        pad_to_multiple;
      w.raw(deps_->rng.generate(padded - total));
    }
    return w.take();
  }

  // Legacy v1: one seal() over the whole plaintext, serial on this thread.
  Bytes seal_plain_v1(ByteSpan plain, ByteSpan key, crypto::CipherAlg alg) {
    env_->work(crypto::cipher_cost_ns(alg, plain.size()));
    env_->work(sim::per_byte_x100(env_->cost().sha256_ns_per_byte_x100,
                                  plain.size()));
    return crypto::seal(alg, key, plain);
  }

  // The pipelined chunked data path (wire format v2). Three stages overlap
  // in virtual time:
  //   1. dump      — this thread walks the serialized state batch by batch,
  //                  charging traversal cost, and publishes each dumped batch
  //                  as a *claim* on a bounded lock-free SPSC ring (one todo
  //                  ring per worker, round-robin);
  //   2. seal      — `seal_workers` sim threads (parked TCSs woken into a
  //                  crypto loop) pop claims from their own ring and
  //                  batch-seal the chunks (crypto::ChunkSealer::seal_batch:
  //                  cipher setup and subkey HKDF-Extract amortized across
  //                  the batch), pushing the sealed run onto their done ring;
  //   3. send      — this thread drains the done rings, reorders runs, and
  //                  gather-sends each CHNK frame over cmd.chunk_stream the
  //                  moment its turn comes: the frame header goes inline in a
  //                  ByteChain, the sealed bytes are referenced in place, and
  //                  the payload is copied exactly once, into the wire
  //                  message. send() never blocks the sender — the link
  //                  itself serializes — so the wire carries chunk k while
  //                  the workers encrypt chunk k+1.
  // Stages 1 and 3 interleave on this thread (a claim is only published once
  // its chunks are dumped), so the bounded rings can never deadlock: the
  // control thread always drains every done ring before it sleeps.
  // Per-chunk MACs fold into one integrity root (crypto::ChunkSealer): the
  // checkpoint is still accepted or rejected as a single unit.
  Bytes seal_plain_chunked(Bytes plain_in, ByteSpan key, ControlCmd& cmd) {
    const sim::CostModel& cost = env_->cost();
    const uint64_t chunk_bytes = cmd.chunk_bytes;
    const uint64_t chunks =
        std::max<uint64_t>(1, (plain_in.size() + chunk_bytes - 1) / chunk_bytes);
    const uint64_t workers =
        std::clamp<uint64_t>(cmd.seal_workers, 1, chunks);
    const uint64_t batch_chunks = std::max<uint64_t>(1, cmd.seal_batch_chunks);

    // A claim is a contiguous run of dumped chunks; a sealed run is its
    // ciphertexts. The todo rings hold a few claims of slack so the dump
    // stage can run ahead of a slow worker without unbounded buffering; the
    // done rings hold two full batches of per-chunk results so a worker
    // never blocks mid-claim on the control thread's drain cadence.
    struct Claim {
      uint64_t first = 0;
      uint64_t count = 0;
    };
    struct SealedRun {
      uint64_t first = 0;
      std::vector<Bytes> sealed;
    };
    static constexpr size_t kTodoSlots = 4;  // claims per worker, power of two
    const size_t done_slots =
        std::max<size_t>(4, std::bit_ceil(2 * batch_chunks));

    struct Pipeline {
      Bytes plain;
      uint64_t chunk_bytes = 0;
      uint64_t chunks = 0;
      bool dump_done = false;
      std::vector<std::unique_ptr<util::SpscRing<Claim>>> todo;
      std::vector<std::unique_ptr<util::SpscRing<SealedRun>>> done;
      crypto::ChunkSealer sealer;
      sim::Event work_ev;     // control -> workers: claims published / done
      sim::Event result_ev;   // workers -> control: sealed run available
      sim::Event drained_ev;  // control -> workers: done-ring space freed
      Pipeline(sim::Executor& ex, crypto::CipherAlg alg, ByteSpan k)
          : sealer(alg, k), work_ev(ex), result_ev(ex), drained_ev(ex) {}
      ByteSpan chunk(uint64_t i) const {
        uint64_t off = i * chunk_bytes;
        return ByteSpan(plain).subspan(
            off, std::min<uint64_t>(chunk_bytes, plain.size() - off));
      }
    };
    auto p = std::make_shared<Pipeline>(env_->ctx().executor(), cmd.cipher, key);
    p->plain = std::move(plain_in);
    p->chunk_bytes = chunk_bytes;
    p->chunks = chunks;
    for (uint64_t wi = 0; wi < workers; ++wi) {
      p->todo.push_back(std::make_unique<util::SpscRing<Claim>>(kTodoSlots));
      p->done.push_back(std::make_unique<util::SpscRing<SealedRun>>(done_slots));
    }
    if (obs::metrics_enabled()) {
      auto& m = obs::metrics();
      m.set_gauge("pipeline.depth", workers);
      m.set_gauge("pipeline.chunk_bytes", chunk_bytes);
      m.set_gauge("pipeline.batch_chunks", batch_chunks);
    }

    const crypto::CipherAlg alg = cmd.cipher;
    const sim::CostModel* cm = &cost;
    for (uint64_t wi = 0; wi < workers; ++wi) {
      env_->work(cost.seal_worker_spawn_ns);
      env_->ctx().executor().spawn(
          "seal-w" + std::to_string(wi), [p, alg, cm, wi](sim::ThreadCtx& tc) {
            obs::Span<sim::ThreadCtx> span(tc, "pipeline.seal_worker", "sdk");
            std::vector<ByteSpan> spans;
            for (;;) {
              std::optional<Claim> cl = p->todo[wi]->try_pop();
              if (!cl) {
                if (p->dump_done) return;
                p->work_ev.reset();
                p->work_ev.wait(tc);
                continue;
              }
              spans.clear();
              for (uint64_t k = 0; k < cl->count; ++k)
                spans.push_back(p->chunk(cl->first + k));
              uint64_t t0 = tc.now();
              // Cipher/key setup is paid once per batch — the point of
              // batching — while the per-byte crypto cost is untouched.
              tc.work(cm->chunk_setup_ns);
              auto sealed = p->sealer.seal_batch(cl->first, spans);
              MIG_CHECK(sealed.ok());  // claims cover disjoint index runs
              // Chunks finish — and stream onward — one by one as their
              // crypto cost accrues: batching amortizes the setup, it does
              // not hold chunk k hostage to the rest of its batch (coarse
              // hand-off granularity would bubble the wire).
              for (uint64_t k = 0; k < cl->count; ++k) {
                tc.work(crypto::cipher_cost_ns(alg, spans[k].size()) +
                        sim::per_byte_x100(cm->sha256_ns_per_byte_x100,
                                           spans[k].size()));
                SealedRun run{cl->first + k, {}};
                run.sealed.push_back(std::move((*sealed)[k]));
                while (!p->done[wi]->try_push(std::move(run))) {
                  p->drained_ev.reset();
                  p->drained_ev.wait(tc);
                }
                p->result_ev.set(tc);
              }
              if (obs::metrics_enabled()) {
                obs::metrics().add("pipeline.chunks_sealed", cl->count);
                obs::metrics().observe("pipeline.batch_seal_ns", tc.now() - t0);
              }
            }
          });
    }

    // Interleaved dump + send control loop.
    std::vector<Bytes> sealed(chunks);
    std::map<uint64_t, std::vector<Bytes>> stash;  // out-of-order sealed runs
    uint64_t next_dump = 0;
    uint64_t next_batch = 0;  // round-robins batches across workers
    uint64_t next_send = 0;
    while (next_send < chunks) {
      bool progress = false;
      // Drain every done ring first (frees worker-side ring space even for
      // out-of-order runs) ...
      bool any_drained = false;
      for (uint64_t wi = 0; wi < workers; ++wi) {
        while (std::optional<SealedRun> run = p->done[wi]->try_pop()) {
          stash.emplace(run->first, std::move(run->sealed));
          any_drained = true;
        }
      }
      if (any_drained) {
        p->drained_ev.set(env_->ctx());
        progress = true;
      }
      // ... then gather-send whatever is now in order: sealed chunks hit the
      // wire before the control thread's clock advances through more dump
      // work.
      while (!stash.empty() && stash.begin()->first == next_send) {
        obs::Span<sim::ThreadCtx> send_span(env_->ctx(), "pipeline.send", "sdk");
        auto node = stash.extract(stash.begin());
        for (Bytes& sc : node.mapped()) {
          if (cmd.chunk_stream.has_value()) {
            util::ByteChain frame;
            chain_chunk_frame(frame, next_send, sc);
            cmd.chunk_stream->send_gather(env_->ctx(), frame);
          }
          sealed[next_send] = std::move(sc);
          ++next_send;
        }
        progress = true;
      }
      if (next_send >= chunks) break;
      // Dump at most ONE claim per pass, respecting the target worker's ring
      // as backpressure. Publishing claim-by-claim keeps the send stage
      // interleaved with the dump stage: filling every ring in one burst
      // would hold completed chunks off the wire for the whole burst.
      if (next_dump < chunks) {
        uint64_t wi = next_batch % workers;
        if (!p->todo[wi]->full()) {
          // Guided self-scheduling of claim sizes: single-chunk claims first
          // (consecutive chunks land on different workers, so the in-order
          // send stream fills at the aggregate seal rate while the wire spins
          // up), ramp to the configured batch mid-stream where setup
          // amortization pays, and taper toward the end so the tail
          // load-balances at chunk granularity instead of leaving one worker
          // sealing a whole batch while the rest sit idle.
          uint64_t ramp = next_batch < workers * 4
                              ? uint64_t{1}
                              : uint64_t{1} << std::min<uint64_t>(
                                    next_batch - workers * 4, 10);
          uint64_t taper =
              std::max<uint64_t>(1, (chunks - next_dump) / (workers * 2));
          Claim cl{next_dump,
                   std::min({batch_chunks, ramp, taper, chunks - next_dump})};
          {
            obs::Span<sim::ThreadCtx> dump_span(env_->ctx(), "pipeline.dump",
                                                "sdk", {{"chunks", cl.count}});
            for (uint64_t k = 0; k < cl.count; ++k)
              env_->work(sim::per_byte_x100(
                  cost.checkpoint_dump_ns_per_byte_x100,
                  p->chunk(cl.first + k).size()));
          }
          MIG_CHECK(p->todo[wi]->try_push(cl));
          p->work_ev.set(env_->ctx());
          next_dump += cl.count;
          ++next_batch;
          progress = true;
        }
        if (next_dump >= chunks) {
          p->dump_done = true;
          p->work_ev.set(env_->ctx());
        }
      }
      if (!progress) {
        p->result_ev.reset();
        p->result_ev.wait(env_->ctx());
      }
    }
    auto root = p->sealer.integrity_root();
    MIG_CHECK(root.ok());
    ChunkedHeader h;
    h.alg = cmd.cipher;
    h.chunk_bytes = chunk_bytes;
    h.chunk_count = chunks;
    h.total_bytes = p->plain.size();
    if (cmd.chunk_stream.has_value()) {
      util::ByteChain end;
      chain_end_frame(end, h, *root);
      cmd.chunk_stream->send_gather(env_->ctx(), end);
    }
    // Assemble the v2 blob as one chain over the sealed chunks: the only
    // copy of the ciphertext is into the exactly-reserved output.
    std::vector<ByteSpan> spans(sealed.begin(), sealed.end());
    util::ByteChain blob;
    chain_chunked_checkpoint(blob, h, spans, *root);
    return blob.flatten();
  }

  Bytes seal_checkpoint(const Checkpoint& c, ByteSpan key, ControlCmd& cmd) {
    Bytes plain = checkpoint_plaintext(c, cmd.pad_to_multiple);
    if (cmd.chunk_bytes == 0) return seal_plain_v1(plain, key, cmd.cipher);
    return seal_plain_chunked(std::move(plain), key, cmd);
  }

  // Mirror of seal_plain_chunked on the restore side: open every chunk under
  // its index-derived subkey, then require the integrity root to cover
  // exactly the announced chunk set. Serial — restore latency is dominated
  // by the pump replay, and a lone target thread has no workers to spare.
  Result<Bytes> open_chunked(ByteSpan blob, ByteSpan key) {
    const sim::CostModel& cost = env_->cost();
    MIG_ASSIGN_OR_RETURN(ParsedChunked pc, parse_chunked_checkpoint(blob));
    if (pc.header.total_bytes > (uint64_t{1} << 32))
      return Error(ErrorCode::kIntegrityViolation,
                   "chunked checkpoint: absurd total size");
    crypto::ChunkOpener opener(key);
    Bytes plain;
    for (uint64_t i = 0; i < pc.sealed_chunks.size(); ++i) {
      const Bytes& sc = pc.sealed_chunks[i];
      env_->work(cost.chunk_setup_ns + crypto::cipher_cost_ns(pc.header.alg, sc.size()) +
                 sim::per_byte_x100(cost.sha256_ns_per_byte_x100, sc.size()));
      Result<Bytes> chunk = opener.open_chunk(i, sc);
      if (!chunk.ok())
        return Error(chunk.status().code(),
                     "chunk " + std::to_string(i) + " of " +
                         std::to_string(pc.sealed_chunks.size()) + ": " +
                         chunk.status().message());
      append(plain, *chunk);
    }
    MIG_RETURN_IF_ERROR(opener.verify_root(pc.header.chunk_count, pc.root));
    if (plain.size() != pc.header.total_bytes)
      return Error(ErrorCode::kIntegrityViolation,
                   "chunked checkpoint: total size mismatch");
    return plain;
  }

  // ---- incremental checkpointing (wire format v3) ----------------------------
  // Source-side session state between kDumpBaseline and the final kDumpDelta.
  struct DeltaState {
    bool active = false;
    Bytes root_key;                         // chain key (from Kmigrate)
    crypto::Digest chain{};                 // running chain, zero at start
    uint64_t next_segment = 0;
    std::map<uint64_t, uint64_t> shipped;   // page -> last shipped version
    std::set<crypto::Digest> shipped_hashes;  // content already on the wire
  };

  // Post-copy (wire v4) source state, armed by the final kDumpDelta when the
  // residual tail stays behind as kRemote manifest records. Serving keeps
  // working after self-destroy on purpose: the image froze at the quiescent
  // point and resumed workers only ever spin, so the content each manifest
  // entry promises can never change again.
  struct PageServeState {
    bool armed = false;
    Bytes root_key;    // postcopy_root_key(Kmigrate, epoch)
    Bytes kmigrate;    // page seal keys derive from this
    crypto::Digest chain{};  // continues the wire-v3 delta chain
    uint64_t next_seq = 0;
    uint64_t epoch = 0;  // counter epoch replies are bound to (source + 1)
    crypto::CipherAlg cipher = crypto::CipherAlg::kRc4;
    std::map<uint64_t, uint64_t> manifest;  // page -> version still owed
  };

  // Post-copy target state between kRestore and the last kApplyPages.
  struct PageApplyState {
    bool active = false;
    Bytes root_key;
    Bytes kmigrate;
    crypto::Digest chain{};
    uint64_t next_seq = 0;
    uint64_t epoch = 0;
    struct Pending {
      uint64_t version = 0;
      crypto::Digest hash{};
    };
    std::map<uint64_t, Pending> pending;  // page -> what the manifest promised
  };

  // The pages the delta records cover, in canonical order: the meta page,
  // then the data region, then the heap. TLS + SSA state travels in the
  // final segment's sealed trailer instead — the same split the classic
  // Checkpoint makes between regions and WorkerSnapshots.
  std::vector<uint64_t> delta_page_list() const {
    std::vector<uint64_t> pages;
    pages.push_back(0);
    uint64_t d0 = l_->data_off / sgx::kPageSize;
    for (uint64_t p = 0; p < l_->params.data_pages; ++p) pages.push_back(d0 + p);
    uint64_t h0 = l_->heap_off / sgx::kPageSize;
    for (uint64_t p = 0; p < l_->params.heap_pages; ++p) pages.push_back(h0 + p);
    return pages;
  }

  // Fail closed: any error mid-dump abandons the delta session (the chain is
  // half-advanced and can never be completed consistently). The migration
  // layer rolls the rest back via kCancelMigration.
  void abandon_delta() {
    env_->write_u64(kOffDeltaTracking, 0);
    delta_ = DeltaState{};
  }

  // One dump round. Baseline ships every page; deltas ship only pages whose
  // version moved past the last shipped value. Each page's version is read
  // BEFORE its content: a worker racing the content read bumps the version
  // past what we record as shipped, so a possibly-torn page is always
  // re-shipped by a later round — and the final round runs at the quiescent
  // point, where no writer races anything.
  //
  // Returns the encoded segment, or an empty blob when a non-final round
  // found nothing re-dirtied (no segment is emitted; the chain and segment
  // counter stay untouched).
  Result<Bytes> dump_delta_segment(ControlCmd& cmd, bool baseline, bool final,
                                   DeltaStats& stats,
                                   std::map<uint64_t, uint64_t>* remote_out =
                                       nullptr) {
    // A post-copy tail turns residual data pages into kRemote manifest
    // records (hash + version, no payload); the meta page always ships in
    // full, since the target cannot restore without it.
    const bool remote_tail = final && cmd.postcopy_tail;
    const sim::CostModel& cost = env_->cost();
    Bytes kmigrate = env_->read_bytes(kOffKmigrate, 32);
    static const crypto::Digest zero_hash =
        crypto::Sha256::hash(Bytes(sgx::kPageSize, 0));
    DeltaSegment seg;
    seg.alg = cmd.cipher;
    seg.index = delta_.next_segment;
    seg.final_segment = final;
    // One pooled scratch page serves every content read in this dump: the
    // bytes are hashed/sealed and never escape the loop iteration.
    util::BufferPool::Handle content_h = page_pool_.acquire();
    Bytes& content = *content_h;
    for (uint64_t page : delta_page_list()) {
      ++stats.pages_scanned;
      env_->work(sim::per_byte_x100(cost.delta_scan_ns_per_page_x100, 1));
      uint64_t version = env_->read_u64(l_->track_slot(page * sgx::kPageSize));
      auto it = delta_.shipped.find(page);
      if (!baseline && it != delta_.shipped.end() && version <= it->second)
        continue;
      Status st = env_->try_read_bytes(page * sgx::kPageSize, sgx::kPageSize,
                                       content);
      if (!st.ok()) {
        // Same SGXv1 limitation as dump_region(): a W+X page is unreadable.
        return Error(ErrorCode::kPermissionDenied,
                     "enclave has a non-readable (W+X) page; cannot be "
                     "migrated under SGXv1 (" + st.message() + ")");
      }
      charge_page_dump();
      env_->work(sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                    content.size()));
      crypto::Digest h = crypto::Sha256::hash(content);
      DeltaRecord rec;
      rec.page = page;
      rec.version = version;
      if (h == zero_hash) {
        rec.kind = DeltaRecordKind::kZero;
        ++stats.pages_zero;
        stats.elided_bytes += sgx::kPageSize;
      } else if (delta_.shipped_hashes.count(h) != 0) {
        rec.kind = DeltaRecordKind::kDup;
        rec.payload.assign(h.begin(), h.end());
        ++stats.pages_deduped;
        stats.deduped_bytes += sgx::kPageSize;
      } else if (remote_tail && page != 0) {
        // kRemote never feeds shipped_hashes: a second identical residual
        // page also goes remote, so dup records only ever reference content
        // the target has actually applied.
        rec.kind = DeltaRecordKind::kRemote;
        rec.payload.assign(h.begin(), h.end());
        if (remote_out != nullptr) (*remote_out)[page] = version;
      } else {
        rec.kind = DeltaRecordKind::kData;
        env_->work(crypto::cipher_cost_ns(cmd.cipher, content.size()));
        rec.payload = crypto::seal(
            cmd.cipher, crypto::delta_page_key(kmigrate, page, version),
            content);
        delta_.shipped_hashes.insert(h);
      }
      delta_.chain = crypto::delta_chain_record(
          delta_.root_key, delta_.chain, seg.index, page, version,
          static_cast<uint8_t>(rec.kind), h);
      delta_.shipped[page] = version;
      seg.records.push_back(std::move(rec));
    }
    stats.pages_sent = seg.records.size();
    if (!final && seg.records.empty()) return Bytes{};
    if (final) {
      Writer tw;
      write_workers(tw, capture_workers());
      Bytes workers_blob = tw.take();
      env_->work(crypto::cipher_cost_ns(cmd.cipher, workers_blob.size()) +
                 sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                    workers_blob.size()));
      seg.trailer = crypto::seal(cmd.cipher,
                                 crypto::delta_final_key(kmigrate),
                                 workers_blob);
    }
    delta_.chain = crypto::delta_chain_close(
        delta_.root_key, delta_.chain, seg.index, seg.records.size(), final,
        crypto::Sha256::hash(seg.trailer));
    seg.chain.assign(delta_.chain.begin(), delta_.chain.end());
    ++delta_.next_segment;
    Bytes wire = encode_delta_segment(seg);
    stats.wire_bytes = wire.size();
    obs::metrics().add("delta.segments");
    obs::metrics().add("delta.pages_sent", stats.pages_sent);
    obs::metrics().add("delta.pages_zero", stats.pages_zero);
    obs::metrics().add("delta.pages_deduped", stats.pages_deduped);
    publish_pool_metrics();
    return wire;
  }

  // ---- kDumpBaseline ----------------------------------------------------------
  ControlReply dump_baseline(ControlCmd& cmd) {
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    // Fresh Kmigrate, same contract as kPrepareCheckpoint.
    Bytes kmigrate = deps_->rng.generate(32);
    env_->write_bytes(kOffKmigrate, kmigrate);
    env_->write_u64(kOffKeyServed, 0);
    // Reset + arm tracking BEFORE reading any content, so every write racing
    // the baseline dump bumps its page past the shipped version.
    const Bytes zero_page(sgx::kPageSize, 0);
    for (uint64_t p = 0; p < l_->track_pages; ++p)
      env_->write_bytes(l_->track_off + p * sgx::kPageSize, zero_page);
    env_->write_u64(kOffDeltaTracking, 1);
    delta_ = DeltaState{};
    delta_.active = true;
    delta_.root_key = crypto::delta_root_key(kmigrate);
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "delta.baseline", "sdk");
    ControlReply reply;
    auto wire = dump_delta_segment(cmd, /*baseline=*/true, /*final=*/false,
                                   reply.delta);
    if (!wire.ok()) {
      abandon_delta();
      return fail(wire.status().code(), wire.status().message());
    }
    span.finish({{"pages", reply.delta.pages_sent}});
    reply.blob = std::move(*wire);
    return reply;
  }

  // ---- kDumpDelta -------------------------------------------------------------
  ControlReply dump_delta(ControlCmd& cmd) {
    if (!delta_.active)
      return fail(ErrorCode::kFailedPrecondition,
                  "no delta session: kDumpBaseline was never run");
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    if (cmd.final_dump) {
      // Stop-phase dump: the two-phase protocol of §IV-B, but by now only
      // the residual dirty set is left to capture. Note reach_quiescent_point
      // writes the global flag, which itself bumps the meta page's version —
      // the meta page is always part of the residual set.
      obs::Span<sim::ThreadCtx> quiesce_span(env_->ctx(),
                                             "checkpoint.quiesce", "sdk");
      reach_quiescent_point();
    }
    obs::Span<sim::ThreadCtx> span(
        env_->ctx(), cmd.final_dump ? "delta.final" : "delta.round", "sdk");
    ControlReply reply;
    std::map<uint64_t, uint64_t> remote;
    auto wire = dump_delta_segment(cmd, /*baseline=*/false, cmd.final_dump,
                                   reply.delta, &remote);
    if (!wire.ok()) {
      abandon_delta();
      return fail(wire.status().code(), wire.status().message());
    }
    span.finish({{"pages", reply.delta.pages_sent},
                 {"final", cmd.final_dump}});
    reply.blob = std::move(*wire);
    if (cmd.final_dump) {
      if (cmd.postcopy_tail) {
        // Arm the page service before the session state is dropped. The
        // epoch is the value the migration commits to: the target advances
        // the counter to source epoch + 1 when restore completes, so a fork
        // of this enclave restored from an older snapshot (older epoch)
        // derives different keys and its replies are refused.
        Bytes kmigrate = env_->read_bytes(kOffKmigrate, 32);
        page_serve_ = PageServeState{};
        page_serve_.armed = true;
        page_serve_.epoch = env_->read_u64(kOffCounterEpoch) + 1;
        page_serve_.kmigrate = kmigrate;
        page_serve_.root_key =
            crypto::postcopy_root_key(kmigrate, page_serve_.epoch);
        page_serve_.chain = delta_.chain;
        page_serve_.cipher = cmd.cipher;
        page_serve_.manifest = std::move(remote);
        for (const auto& [page, version] : page_serve_.manifest) {
          (void)version;
          reply.postcopy_pending.push_back(page);
        }
        reply.postcopy_epoch = page_serve_.epoch;
        obs::instant(env_->ctx(), "postcopy.armed", "sdk",
                     {{"pages", page_serve_.manifest.size()},
                      {"epoch", page_serve_.epoch}});
      }
      // The session is complete: counting stops. The shipped meta page still
      // carries the armed flag; the target's apply path clears it.
      env_->write_u64(kOffDeltaTracking, 0);
      delta_ = DeltaState{};
    }
    return reply;
  }

  // Target side: parse + verify the whole v3 container, reconstructing the
  // same Checkpoint the classic formats decode to. Every data record's MAC,
  // the per-segment chain values, per-page version monotonicity, segment
  // contiguity and page-set completeness are all checked here — a stale,
  // reordered, spliced or truncated delta never reaches enclave memory.
  Result<Checkpoint> open_delta(
      ControlCmd& cmd, ByteSpan key,
      std::map<uint64_t, PageApplyState::Pending>* remote_out = nullptr,
      crypto::Digest* chain_out = nullptr) {
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "delta.apply", "sdk");
    const sim::CostModel& cost = env_->cost();
    MIG_ASSIGN_OR_RETURN(std::vector<Bytes> segs,
                         parse_delta_container(cmd.blob));
    Bytes root_key = crypto::delta_root_key(key);
    crypto::Digest chain{};
    std::map<uint64_t, uint64_t> versions;  // page -> last applied version
    std::map<uint64_t, Bytes> pages;        // page -> current plaintext
    std::map<crypto::Digest, Bytes> cache;  // content hash -> plaintext
    const Bytes zero_page(sgx::kPageSize, 0);
    const crypto::Digest zero_hash = crypto::Sha256::hash(zero_page);
    Bytes sealed_trailer;
    for (uint64_t i = 0; i < segs.size(); ++i) {
      auto seg = parse_delta_segment(segs[i]);
      if (!seg.ok())
        return Error(seg.status().code(), "segment " + std::to_string(i) +
                                              ": " + seg.status().message());
      if (seg->index != i)
        return Error(ErrorCode::kIntegrityViolation,
                     "delta checkpoint: position " + std::to_string(i) +
                         " carries segment index " + std::to_string(seg->index));
      bool last = i + 1 == segs.size();
      if (seg->final_segment != last)
        return Error(ErrorCode::kIntegrityViolation,
                     last ? "delta checkpoint: last segment is not final"
                          : "delta checkpoint: final segment in the middle");
      for (const DeltaRecord& rec : seg->records) {
        if (rec.page >= l_->tracked_pages())
          return Error(ErrorCode::kIntegrityViolation,
                       "delta record targets page " + std::to_string(rec.page) +
                           " outside the enclave");
        auto vit = versions.find(rec.page);
        if (vit != versions.end() && rec.version <= vit->second)
          return Error(ErrorCode::kIntegrityViolation,
                       "delta record replays a stale version of page " +
                           std::to_string(rec.page));
        Bytes plain;
        crypto::Digest h{};
        switch (rec.kind) {
          case DeltaRecordKind::kData: {
            env_->work(crypto::cipher_cost_ns(seg->alg, rec.payload.size()) +
                       sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                          rec.payload.size()));
            auto opened = crypto::open(
                crypto::delta_page_key(key, rec.page, rec.version),
                rec.payload);
            if (!opened.ok())
              return Error(opened.status().code(),
                           "delta page " + std::to_string(rec.page) +
                               " rejected: " + opened.status().message());
            plain = std::move(*opened);
            if (plain.size() != sgx::kPageSize)
              return Error(ErrorCode::kIntegrityViolation,
                           "delta page is not page-sized");
            h = crypto::Sha256::hash(plain);
            cache[h] = plain;
            break;
          }
          case DeltaRecordKind::kZero:
            plain = zero_page;
            h = zero_hash;
            break;
          case DeltaRecordKind::kDup: {
            std::copy(rec.payload.begin(), rec.payload.end(), h.begin());
            auto cit = cache.find(h);
            if (cit == cache.end())
              return Error(ErrorCode::kIntegrityViolation,
                           "dup record references content never applied");
            plain = cit->second;
            break;
          }
          case DeltaRecordKind::kRemote: {
            if (!cmd.allow_postcopy || remote_out == nullptr)
              return Error(ErrorCode::kIntegrityViolation,
                           "remote record for page " +
                               std::to_string(rec.page) +
                               " refused: post-copy is not enabled");
            if (rec.page == 0)
              return Error(ErrorCode::kIntegrityViolation,
                           "meta page cannot be remote");
            // The page stays a zero placeholder until kApplyPages delivers
            // content matching this hash at this version.
            std::copy(rec.payload.begin(), rec.payload.end(), h.begin());
            plain = zero_page;
            PageApplyState::Pending p;
            p.version = rec.version;
            p.hash = h;
            (*remote_out)[rec.page] = p;
            break;
          }
        }
        chain = crypto::delta_chain_record(root_key, chain, seg->index,
                                           rec.page, rec.version,
                                           static_cast<uint8_t>(rec.kind), h);
        if (rec.kind != DeltaRecordKind::kRemote && remote_out != nullptr)
          remote_out->erase(rec.page);
        versions[rec.page] = rec.version;
        pages[rec.page] = std::move(plain);
      }
      chain = crypto::delta_chain_close(root_key, chain, seg->index,
                                        seg->records.size(),
                                        seg->final_segment,
                                        crypto::Sha256::hash(seg->trailer));
      if (!crypto::ct_equal(ByteSpan(chain), ByteSpan(seg->chain)))
        return Error(ErrorCode::kIntegrityViolation,
                     "delta chain mismatch at segment " + std::to_string(i));
      if (seg->final_segment) sealed_trailer = std::move(seg->trailer);
      obs::metrics().add("delta.segments_applied");
    }
    if (sealed_trailer.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "delta checkpoint: final segment carries no thread state");
    env_->work(crypto::cipher_cost_ns(crypto::CipherAlg::kChaCha20,
                                      sealed_trailer.size()));
    MIG_ASSIGN_OR_RETURN(
        Bytes workers_blob,
        crypto::open(crypto::delta_final_key(key), sealed_trailer));
    Reader tr(workers_blob);
    Checkpoint c;
    MIG_ASSIGN_OR_RETURN(c.workers, read_workers(tr));
    MIG_RETURN_IF_ERROR(tr.finish());
    // Completeness: every checkpointable page must have shipped at least
    // once (the baseline guarantees it; a truncated baseline does not).
    for (uint64_t page : delta_page_list()) {
      auto pit = pages.find(page);
      if (pit == pages.end())
        return Error(ErrorCode::kIntegrityViolation,
                     "delta checkpoint never shipped page " +
                         std::to_string(page));
      if (page == 0)
        c.meta_page = pit->second;
      else if (page >= l_->heap_off / sgx::kPageSize)
        append(c.heap_region, pit->second);
      else
        append(c.data_region, pit->second);
    }
    if (chain_out != nullptr) *chain_out = chain;
    return c;
  }

  // ---- kServePages (wire v4 source role) -------------------------------------
  // Answers one page-request frame from the frozen post-copy manifest. No
  // self_destroyed() guard on purpose: the source serves pages AFTER serving
  // Kmigrate (which self-destroys it), and a frozen image can only tell the
  // truth. Each manifest page is served exactly once — a replayed request
  // finds it gone.
  ControlReply serve_pages(ControlCmd& cmd) {
    if (!page_serve_.armed)
      return fail(ErrorCode::kFailedPrecondition,
                  "no post-copy manifest armed");
    auto req = parse_page_request(cmd.blob);
    if (!req.ok())
      return fail(req.status().code(),
                  "page request rejected: " + req.status().message());
    if (req->epoch != page_serve_.epoch)
      return fail(ErrorCode::kPermissionDenied,
                  "page request bound to epoch " + std::to_string(req->epoch) +
                      "; this source serves epoch " +
                      std::to_string(page_serve_.epoch));
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "postcopy.serve", "sdk");
    const sim::CostModel& cost = env_->cost();
    // Expand each demand fault with up to prefetch_pages adjacent manifest
    // pages (fault locality: the next fault is likely the next page).
    std::set<uint64_t> to_serve;
    for (uint64_t page : req->pages) {
      if (page_serve_.manifest.count(page) == 0)
        return fail(ErrorCode::kInvalidArgument,
                    "page " + std::to_string(page) +
                        " is not in the post-copy manifest");
      to_serve.insert(page);
      for (uint64_t n = 1; n <= cmd.prefetch_pages; ++n) {
        if (page_serve_.manifest.count(page + n) == 0) break;
        to_serve.insert(page + n);
      }
    }
    uint64_t prefetched = to_serve.size() - req->pages.size();
    PageReply frame;
    frame.epoch = page_serve_.epoch;
    frame.first_seq = page_serve_.next_seq;
    // Pooled scratch page reused across the whole reply (content is sealed
    // into rec.sealed; the plaintext never outlives the iteration).
    util::BufferPool::Handle content_h = page_pool_.acquire();
    Bytes& content = *content_h;
    for (uint64_t page : to_serve) {
      uint64_t version = page_serve_.manifest.at(page);
      Status st = env_->try_read_bytes(page * sgx::kPageSize, sgx::kPageSize,
                                       content);
      if (!st.ok()) return fail(st.code(), st.message());
      charge_page_dump();
      env_->work(sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                    content.size()) +
                 crypto::cipher_cost_ns(page_serve_.cipher, content.size()));
      crypto::Digest h = crypto::Sha256::hash(content);
      PageReplyRecord rec;
      rec.page = page;
      rec.version = version;
      rec.sealed = crypto::seal(
          page_serve_.cipher,
          crypto::delta_page_key(page_serve_.kmigrate, page, version),
          content);
      page_serve_.chain = crypto::delta_chain_record(
          page_serve_.root_key, page_serve_.chain, page_serve_.next_seq, page,
          version, static_cast<uint8_t>(DeltaRecordKind::kData), h);
      rec.chain.assign(page_serve_.chain.begin(), page_serve_.chain.end());
      ++page_serve_.next_seq;
      frame.records.push_back(std::move(rec));
      page_serve_.manifest.erase(page);
    }
    obs::metrics().add("postcopy.pages_served", frame.records.size());
    obs::metrics().add("postcopy.prefetched", prefetched);
    publish_pool_metrics();
    span.finish({{"pages", frame.records.size()},
                 {"remaining", page_serve_.manifest.size()}});
    ControlReply reply;
    reply.blob = encode_page_reply(frame);
    for (const auto& [page, version] : page_serve_.manifest) {
      (void)version;
      reply.postcopy_pending.push_back(page);
    }
    return reply;
  }

  // ---- kApplyPages (wire v4 target role) -------------------------------------
  // Verify-applies one page reply: epoch binding, chain continuity from the
  // delta chain, manifest version + content hash, and the per-page MAC all
  // have to hold before a byte reaches enclave memory.
  ControlReply apply_pages(ControlCmd& cmd) {
    if (!page_apply_.active)
      return fail(ErrorCode::kFailedPrecondition,
                  "no post-copy restore in progress");
    auto frame = parse_page_reply(cmd.blob);
    if (!frame.ok())
      return fail(frame.status().code(),
                  "page reply rejected: " + frame.status().message());
    if (frame->epoch != page_apply_.epoch)
      return fail(ErrorCode::kIntegrityViolation,
                  "page reply from a stale epoch (" +
                      std::to_string(frame->epoch) + ", expected " +
                      std::to_string(page_apply_.epoch) + "); refused");
    if (frame->first_seq != page_apply_.next_seq)
      return fail(ErrorCode::kIntegrityViolation,
                  "page reply out of chain order: expected seq " +
                      std::to_string(page_apply_.next_seq) + ", got " +
                      std::to_string(frame->first_seq) + "; replay refused");
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "postcopy.apply", "sdk");
    const sim::CostModel& cost = env_->cost();
    uint64_t applied = 0;
    for (const PageReplyRecord& rec : frame->records) {
      auto pit = page_apply_.pending.find(rec.page);
      if (pit == page_apply_.pending.end())
        return fail(ErrorCode::kIntegrityViolation,
                    "page " + std::to_string(rec.page) +
                        " was never outstanding; splice refused");
      if (rec.version != pit->second.version)
        return fail(ErrorCode::kIntegrityViolation,
                    "page " + std::to_string(rec.page) + " carries version " +
                        std::to_string(rec.version) +
                        ", manifest promised " +
                        std::to_string(pit->second.version));
      env_->work(crypto::cipher_cost_ns(cmd.cipher, rec.sealed.size()) +
                 sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                    rec.sealed.size()));
      auto opened = crypto::open(
          crypto::delta_page_key(page_apply_.kmigrate, rec.page, rec.version),
          rec.sealed);
      if (!opened.ok())
        return fail(opened.status().code(),
                    "served page " + std::to_string(rec.page) +
                        " rejected: " + opened.status().message());
      if (opened->size() != sgx::kPageSize)
        return fail(ErrorCode::kIntegrityViolation,
                    "served page is not page-sized");
      crypto::Digest h = crypto::Sha256::hash(*opened);
      if (!crypto::ct_equal(h, pit->second.hash))
        return fail(ErrorCode::kIntegrityViolation,
                    "page " + std::to_string(rec.page) +
                        " content does not match the manifest; splice refused");
      crypto::Digest expect = crypto::delta_chain_record(
          page_apply_.root_key, page_apply_.chain, page_apply_.next_seq,
          rec.page, rec.version,
          static_cast<uint8_t>(DeltaRecordKind::kData), h);
      if (rec.chain.size() != 32 ||
          !crypto::ct_equal(ByteSpan(expect), ByteSpan(rec.chain)))
        return fail(ErrorCode::kIntegrityViolation,
                    "post-copy chain mismatch at page " +
                        std::to_string(rec.page));
      env_->write_bytes(rec.page * sgx::kPageSize, *opened);
      env_->work(sim::per_byte_x100(cost.restore_write_ns_per_byte_x100,
                                    opened->size()));
      page_apply_.chain = expect;
      ++page_apply_.next_seq;
      page_apply_.pending.erase(pit);
      ++applied;
    }
    obs::metrics().add("postcopy.pages_applied", applied);
    span.finish({{"pages", applied},
                 {"remaining", page_apply_.pending.size()}});
    ControlReply reply;
    for (const auto& [page, p] : page_apply_.pending) {
      (void)p;
      reply.postcopy_pending.push_back(page);
    }
    if (page_apply_.pending.empty())
      obs::instant(env_->ctx(), "postcopy.tail_complete", "sdk");
    return reply;
  }

  // ---- kAbortPostcopy (fail closed) ------------------------------------------
  // Source outage mid-post-copy: part of this enclave's state never arrived,
  // so there is nothing to roll forward and no key this instance could ever
  // serve. Self-destroy exactly like a stale-epoch fence — the global flag
  // stays set forever and resumed workers spin. The source's sealed image
  // (and any store snapshot from before the migration) remains the
  // restorable copy: this failed target never advanced the counter, so
  // pre-migration snapshots still open.
  ControlReply abort_postcopy(ControlCmd&) {
    page_apply_ = PageApplyState{};
    restore_state_ = RestoreState{};
    env_->write_u64(kOffGlobalFlag, 1);
    env_->write_u64(kOffSelfDestroyed, 1);
    obs::instant(env_->ctx(), "postcopy.fail_closed", "sdk");
    obs::metrics().add("postcopy.aborts");
    obs::flight(env_->ctx(), "sdk.control", "fail_closed",
                "phase=postcopy_pull; target enclave self-destroyed");
    return fail(ErrorCode::kAborted,
                "post-copy source outage; target self-destroyed (fail closed)");
  }

  // ---- kPrepareCheckpoint ---------------------------------------------------
  ControlReply prepare(ControlCmd& cmd) {
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    // Fresh Kmigrate, generated inside the enclave (§IV: "randomly generated
    // migration key").
    Bytes kmigrate = deps_->rng.generate(32);
    env_->write_bytes(kOffKmigrate, kmigrate);
    env_->write_u64(kOffKeyServed, 0);
    {
      obs::Span<sim::ThreadCtx> quiesce_span(env_->ctx(), "checkpoint.quiesce",
                                             "sdk");
      reach_quiescent_point();
    }
    obs::Span<sim::ThreadCtx> dump_span(env_->ctx(), "checkpoint.dump_seal",
                                        "sdk");
    charge_dump_ = cmd.chunk_bytes == 0;
    auto c = capture();
    charge_dump_ = true;
    if (!c.ok()) return fail(c.status().code(), c.status().message());
    ControlReply reply;
    reply.blob = seal_checkpoint(*c, kmigrate, cmd);
    return reply;
  }

  // ---- kNaiveDump (the strawman the §IV-A attack defeats) --------------------
  // Identical to prepare() but with NO global flag and NO quiescence wait:
  // it believes the OS's claim that all other threads are stopped. A lying
  // OS lets a worker race the dump (data-consistency attack, Fig. 3).
  ControlReply naive_dump(ControlCmd& cmd) {
    Bytes kmigrate = deps_->rng.generate(32);
    env_->write_bytes(kOffKmigrate, kmigrate);
    env_->write_u64(kOffKeyServed, 0);
    auto c = capture();
    if (!c.ok()) return fail(c.status().code(), c.status().message());
    ControlReply reply;
    // The strawman predates the chunk pipeline: always plain v1 sealing.
    reply.blob = seal_plain_v1(checkpoint_plaintext(*c, cmd.pad_to_multiple),
                               kmigrate, cmd.cipher);
    return reply;
  }

  // ---- kCancelMigration -----------------------------------------------------
  ControlReply cancel(ControlCmd&) {
    if (env_->read_u64(kOffKeyServed) == 1 || self_destroyed())
      return fail(ErrorCode::kAborted,
                  "cannot cancel: Kmigrate already delivered (self-destroyed)");
    // "If a migration is canceled, the source enclave will delete the
    // Kmigrate immediately so the checkpoint will be useless."
    env_->write_bytes(kOffKmigrate, Bytes(32, 0));
    env_->write_u64(kOffGlobalFlag, 0);
    // A cancelled incremental migration also stops version counting; the
    // already-shipped segments are dead ciphertext without Kmigrate. An
    // armed post-copy manifest dies with the key it was derived from.
    abandon_delta();
    page_serve_ = PageServeState{};
    return {};
  }

  // ---- kServeKey (source role, §V-B) ----------------------------------------
  ControlReply serve_key(ControlCmd& cmd) {
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "key_handshake.serve", "sdk");
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no channel");
    // Every refusal tells the target at once, so it fails fast instead of
    // waiting out its channel timeout.
    auto refuse = [&](ErrorCode code, std::string msg) {
      cmd.channel->send(env_->ctx(), to_bytes("REFUSE"));
      return fail(code, std::move(msg));
    };
    // Single secure channel, ever: additional requests are refused.
    if (self_destroyed() || env_->read_u64(kOffKeyServed) == 1)
      return refuse(ErrorCode::kAborted, "key already served once");
    // A cancelled (or never-prepared) migration leaves Kmigrate zeroed; a
    // zeroed key must never be served — the checkpoint it sealed is dead and
    // self-destroying here would kill the one live copy of the enclave.
    Bytes kmigrate = env_->read_bytes(kOffKmigrate, 32);
    if (std::all_of(kmigrate.begin(), kmigrate.end(),
                    [](uint8_t b) { return b == 0; }))
      return refuse(ErrorCode::kFailedPrecondition, "no migration key armed");
    // Without the identity key the reply cannot be signed.
    if (env_->read_u64(kOffProvisioned) != 1)
      return refuse(ErrorCode::kFailedPrecondition,
                    "identity key not provisioned");
    std::optional<Bytes> req_in =
        cmd.channel->recv_timeout(env_->ctx(), cmd.channel_timeout_ns);
    if (!req_in.has_value()) {
      // The requester never showed up. Keep the key: the migration manager
      // decides next (retry kServeKey, or kCancelMigration to roll back).
      return fail(ErrorCode::kDeadlineExceeded, "no key request arrived");
    }
    Bytes request = std::move(*req_in);
    Reader r(request);
    std::string tag = r.str();
    Bytes dh_pub_t = r.bytes();
    Bytes quote_wire = r.bytes();
    if (!r.finish().ok() || tag != "KEYREQ")
      return refuse(ErrorCode::kInvalidArgument, "malformed key request");

    // Remote attestation of the target enclave, without the owner (§III
    // Step-2): the quote must verify through the attestation service under
    // the IAS key baked into our image and bind the DH value; the attested
    // enclave must be *the same enclave* (same MRENCLAVE) or, when the §VI-D
    // agent optimization is in use, a developer agent (same MRSIGNER).
    crypto::BigNum ias_pk = embedded_ias_pk();
    auto verdict = sgx::check_quote(env_->ctx(), *deps_->ias, deps_->rng,
                                    env_->cost().wan_latency_ns, quote_wire,
                                    dh_pub_t, &ias_pk);
    if (!verdict.ok())
      return refuse(verdict.status().code(), verdict.status().message());
    bool same_enclave = crypto::ct_equal(verdict->mrenclave, own_mrenclave());
    bool developer_agent = cmd.allow_agent_recipient &&
                           crypto::ct_equal(verdict->mrsigner, own_mrsigner());
    if (!same_enclave && !developer_agent)
      return refuse(ErrorCode::kAuthFailure,
                    "target enclave measurement differs");

    // Diffie-Hellman: derive the session key; encrypt Kmigrate under it and
    // authenticate the message with the enclave identity key so the target
    // can authenticate the source (§V-B "the target authenticates the
    // source").
    auto answer =
        sgx::dh_answer(deps_->rng, charge(), sgx::DhCost::remote(env_->cost()),
                       "mig-channel", dh_pub_t, kmigrate);
    if (!answer.ok())
      return refuse(ErrorCode::kAuthFailure, "degenerate DH value");
    crypto::BigNum sk = crypto::BigNum::from_bytes(
        env_->read_bytes(kOffIdentityPriv, 160));
    // The reply carries the source's measurement (public) inside the signed
    // transcript: the target checks it against its own MRENCLAVE, and an
    // agent files the key under it for later local requests.
    crypto::Digest own_mre = own_mrenclave();
    Writer transcript;
    transcript.bytes(dh_pub_t);
    transcript.bytes(answer->pub);
    transcript.bytes(answer->sealed);
    transcript.raw(own_mre);
    env_->work(env_->cost().sig_sign_ns);
    Bytes sig = crypto::sig_sign(sk, transcript.data(), deps_->rng);

    Writer reply_msg;
    reply_msg.str("KEYREP");
    reply_msg.bytes(answer->pub);
    reply_msg.bytes(answer->sealed);
    reply_msg.raw(own_mre);
    reply_msg.bytes(sig);
    cmd.channel->send(env_->ctx(), reply_msg.take());

    // Self-destroy (§V-B): this enclave will never resume. The global flag
    // stays set forever, so any worker the OS resumes spins forever.
    env_->write_u64(kOffKeyServed, 1);
    env_->write_u64(kOffSelfDestroyed, 1);
    obs::instant(env_->ctx(), "key_handoff", "sdk",
                 {{"recipient", developer_agent ? "agent" : "target"}});
    obs::metrics().add("sdk.keys_served");
    return {};
  }

  // ---- kRestore (target role) ------------------------------------------------
  ControlReply restore(ControlCmd& cmd) {
    Result<Bytes> kmigrate = Error(ErrorCode::kInvalidArgument, "no key source");
    if (cmd.agent != nullptr) {
      // §VI-D agent optimization: fetch Kmigrate by local attestation.
      kmigrate = key_from_agent(*cmd.agent);
    } else if (cmd.channel.has_value()) {
      kmigrate = key_from_source(*cmd.channel, cmd.channel_timeout_ns);
    }
    if (!kmigrate.ok())
      return fail(kmigrate.status().code(), kmigrate.status().message());
    return restore_with_key(cmd, *kmigrate);
  }

  ControlReply restore_with_key(ControlCmd& cmd, ByteSpan key) {
    // The blob is self-describing: v2 chunked blobs carry the "MGC2" magic
    // and v3 delta containers "MGV3" — neither first byte can collide with a
    // v1 blob's leading CipherAlg.
    Result<Checkpoint> parsed = Error(ErrorCode::kInternal, "unreachable");
    std::map<uint64_t, PageApplyState::Pending> remote;
    crypto::Digest delta_chain{};
    if (is_delta_checkpoint(cmd.blob)) {
      parsed = open_delta(cmd, key, &remote, &delta_chain);
      if (!parsed.ok())
        return fail(parsed.status().code(), "checkpoint rejected: " +
                                                parsed.status().message());
    } else {
      Result<Bytes> plain = Error(ErrorCode::kInternal, "unreachable");
      if (is_chunked_checkpoint(cmd.blob)) {
        plain = open_chunked(cmd.blob, key);
      } else {
        env_->work(crypto::cipher_cost_ns(cmd.cipher, cmd.blob.size()));
        plain = crypto::open(key, cmd.blob);
      }
      if (!plain.ok())
        return fail(plain.status().code(), "checkpoint rejected: " +
                                               plain.status().message());
      parsed = parse_checkpoint(*plain);
      // Keep the inner detail (e.g. which chunk or region failed): the
      // store-restore and session layers surface this string verbatim.
      if (!parsed.ok())
        return fail(parsed.status().code(), "corrupt checkpoint: " +
                                                parsed.status().message());
    }
    if (parsed->workers.size() != num_workers())
      return fail(ErrorCode::kInvalidArgument, "worker count mismatch");

    uint64_t restored = 0;
    env_->write_bytes(0, parsed->meta_page);
    // A delta checkpoint's meta page arrives with version counting still
    // armed (the source dumps at quiescence mid-session). Disarm before any
    // further restore writes — this instance starts its own sessions fresh.
    env_->write_u64(kOffDeltaTracking, 0);
    env_->write_u64(kOffGlobalFlag, 1);  // stays set until finish_restore
    env_->write_u64(kOffPumpMode, 1);
    for (uint64_t i = 0; i < num_workers(); ++i) {
      env_->write_bytes(l_->tls_offset(i), parsed->workers[i].tls_page);
      restored += sgx::kPageSize;
    }
    env_->write_bytes(l_->data_off, parsed->data_region);
    env_->write_bytes(l_->heap_off, parsed->heap_region);
    restored += parsed->meta_page.size() + parsed->data_region.size() +
                parsed->heap_region.size();
    env_->work(sim::per_byte_x100(env_->cost().restore_write_ns_per_byte_x100,
                                  restored));

    restore_state_.active = true;
    restore_state_.ckpt = std::move(*parsed);

    ControlReply reply;
    for (uint64_t i = 0; i < num_workers(); ++i) {
      uint64_t pumps = restore_state_.ckpt.workers[i].true_cssa;
      if (pumps > 0) reply.pumps.push_back(PumpPlan{i, pumps});
    }
    page_apply_ = PageApplyState{};
    if (!remote.empty()) {
      // Post-copy tail: arm the apply state. The epoch is read from the
      // restored meta page (the source's epoch at the quiescent point) + 1 —
      // the value this migration will advance the counter to on commit.
      page_apply_.active = true;
      page_apply_.epoch = env_->read_u64(kOffCounterEpoch) + 1;
      page_apply_.kmigrate.assign(key.begin(), key.end());
      page_apply_.root_key =
          crypto::postcopy_root_key(page_apply_.kmigrate, page_apply_.epoch);
      page_apply_.chain = delta_chain;
      page_apply_.pending = std::move(remote);
      for (const auto& [page, p] : page_apply_.pending) {
        (void)p;
        reply.postcopy_pending.push_back(page);
      }
      reply.postcopy_epoch = page_apply_.epoch;
      obs::instant(env_->ctx(), "postcopy.pull_armed", "sdk",
                   {{"pages", page_apply_.pending.size()},
                    {"epoch", page_apply_.epoch}});
    }
    return reply;
  }

  Result<Bytes> key_from_source(sim::Channel::End& ch, uint64_t timeout_ns,
                                bool check_source_mre = true,
                                crypto::Digest* source_mre_out = nullptr) {
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "key_handshake.fetch", "sdk");
    MIG_ASSIGN_OR_RETURN(QuotedDh q, quoted_dh());
    const Bytes& dh_pub_t = q.dh.pub();
    Writer req;
    req.str("KEYREQ");
    req.bytes(dh_pub_t);
    req.bytes(q.quote);
    ch.send(env_->ctx(), req.take());

    std::optional<Bytes> reply_in = ch.recv_timeout(env_->ctx(), timeout_ns);
    if (!reply_in.has_value())
      return Error(ErrorCode::kDeadlineExceeded,
                   "source never answered the key request");
    Bytes reply = std::move(*reply_in);
    // The refusal is the bare bytes "REFUSE", not a length-prefixed tag.
    if (reply == to_bytes("REFUSE"))
      return Error(ErrorCode::kAborted, "source refused key exchange");
    Reader r(reply);
    std::string tag = r.str();
    Bytes dh_pub_s = r.bytes();
    Bytes enc = r.bytes();
    Bytes src_mre = r.raw(32);
    Bytes sig = r.bytes();
    MIG_RETURN_IF_ERROR(r.finish());
    if (tag != "KEYREP")
      return Error(ErrorCode::kInvalidArgument, "bad key reply");
    // The target authenticates the source with the public key shipped in
    // the enclave image (§V-B).
    Writer transcript;
    transcript.bytes(dh_pub_t);
    transcript.bytes(dh_pub_s);
    transcript.bytes(enc);
    transcript.raw(src_mre);
    env_->work(env_->cost().sig_verify_ns);
    if (!crypto::sig_verify(embedded_identity_pk(), transcript.data(), sig))
      return Error(ErrorCode::kAuthFailure, "source signature invalid");
    if (check_source_mre &&
        !crypto::ct_equal(ByteSpan(src_mre), ByteSpan(own_mrenclave())))
      return Error(ErrorCode::kAuthFailure, "key is for a different enclave");
    MIG_ASSIGN_OR_RETURN(Bytes key, q.dh.open("mig-channel", dh_pub_s, enc));
    if (source_mre_out != nullptr)
      std::copy(src_mre.begin(), src_mre.end(), source_mre_out->begin());
    return key;
  }

  Result<Bytes> key_from_agent(AgentPort& agent) {
    obs::Span<sim::ThreadCtx> span(env_->ctx(), "key_handshake.agent", "sdk");
    sgx::DhInitiator dh(deps_->rng, charge(),
                        sgx::DhCost::local(env_->cost()));
    MIG_ASSIGN_OR_RETURN(sgx::Report report,
                         env_->ereport(agent.target_info(), dh.binding()));
    AgentPort::Request req{report, dh.pub()};
    AgentPort::Response resp = agent.request(env_->ctx(), req);
    MIG_RETURN_IF_ERROR(resp.status);
    return dh.open("agent-channel", resp.dh_pub, resp.enc_kmigrate);
  }

  // ---- kFinishRestore (§IV-C Step-4) -----------------------------------------
  ControlReply finish_restore(ControlCmd&) {
    if (!restore_state_.active)
      return fail(ErrorCode::kFailedPrecondition, "no restore in progress");
    // Post-copy: the enclave only finishes restore once every remote page
    // arrived and verified — workers must never run on placeholder pages.
    if (page_apply_.active && !page_apply_.pending.empty())
      return fail(ErrorCode::kFailedPrecondition,
                  "post-copy tail incomplete: " +
                      std::to_string(page_apply_.pending.size()) +
                      " page(s) outstanding");
    const Checkpoint& c = restore_state_.ckpt;
    for (uint64_t i = 0; i < num_workers(); ++i) {
      const WorkerSnapshot& w = c.workers[i];
      if (w.true_cssa == 0) continue;
      // In-enclave CSSA tracking: the pump stub recorded the rax of the
      // last EENTER; after its AEX the true CSSA is that + 1. Verify the
      // untrusted library pumped exactly to the checkpointed value.
      uint64_t tracked =
          env_->read_u64(l_->tls_offset(i) + kTlCssaEenter) + 1;
      if (tracked != w.true_cssa) {
        return fail(ErrorCode::kIntegrityViolation,
                    "CSSA restore verification failed (library lied)");
      }
      // Rebuild SSA: interrupted contexts from the checkpoint below, a
      // reconstructed spin context on top.
      for (uint64_t f = 0; f + 1 < w.true_cssa; ++f) {
        env_->write_bytes(l_->ssa_offset(i) + f * sgx::kPageSize,
                          w.ssa_frames[f]);
      }
      CtxKind kind = w.true_cssa == 1 ? CtxKind::kSpinEntry
                                      : CtxKind::kSpinHandler;
      // Build the SSA frame in a pooled scratch page: serialize the context
      // into the front, zero only the tail — no per-worker page allocation
      // and no re-zeroing of bytes that are about to be overwritten.
      util::BufferPool::Handle page_h = page_pool_.acquire();
      Bytes& page = *page_h;
      Bytes ctx_blob = serialize_ctx(kind, i);
      Writer frame;
      frame.bytes(ctx_blob);
      ByteSpan head = frame.data();
      MIG_CHECK(head.size() <= sgx::kPageSize);
      std::copy(head.begin(), head.end(), page.begin());
      std::fill(page.begin() + head.size(), page.end(), 0);
      env_->write_bytes(l_->ssa_offset(i) + (w.true_cssa - 1) * sgx::kPageSize,
                        page);
    }
    env_->write_u64(kOffPumpMode, 0);
    env_->write_u64(kOffSelfDestroyed, 0);
    env_->write_u64(kOffKeyServed, 0);
    env_->write_u64(kOffGlobalFlag, 0);
    restore_state_ = RestoreState{};
    page_apply_ = PageApplyState{};
    return {};
  }

  // ---- owner-keyed checkpoint/resume (§V-C) -----------------------------------
  Result<Bytes> owner_key_exchange(sim::Channel::End& ch, std::string_view verb,
                                   uint64_t timeout_ns) {
    MIG_ASSIGN_OR_RETURN(QuotedDh q, quoted_dh());
    Writer req;
    req.str(std::string(verb));
    req.bytes(q.dh.pub());
    req.bytes(q.quote);
    wan_round_trip();
    ch.send(env_->ctx(), req.take());
    std::optional<Bytes> reply_in = ch.recv_timeout(env_->ctx(), timeout_ns);
    if (!reply_in.has_value())
      return Error(ErrorCode::kDeadlineExceeded, "owner never answered");
    Bytes reply = std::move(*reply_in);
    Reader r(reply);
    std::string tag = r.str();
    Bytes dh_pub_o = r.bytes();
    Bytes enc = r.bytes();
    MIG_RETURN_IF_ERROR(r.finish());
    if (tag != "OWNERKEY")
      return Error(ErrorCode::kAuthFailure, "owner refused: " + tag);
    return q.dh.open("owner-channel", dh_pub_o, enc);
  }

  ControlReply owner_checkpoint(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no owner channel");
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    auto kencrypt =
        owner_key_exchange(*cmd.channel, "CKPT", cmd.channel_timeout_ns);
    if (!kencrypt.ok()) return fail(kencrypt.status().code(),
                                    kencrypt.status().message());
    reach_quiescent_point();
    charge_dump_ = cmd.chunk_bytes == 0;
    auto c = capture();
    charge_dump_ = true;
    if (!c.ok()) return fail(c.status().code(), c.status().message());
    ControlReply reply;
    reply.blob = seal_checkpoint(*c, *kencrypt, cmd);
    // A snapshot is not a migration: execution continues right away.
    env_->write_u64(kOffGlobalFlag, 0);
    return reply;
  }

  ControlReply owner_restore(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no owner channel");
    auto kencrypt =
        owner_key_exchange(*cmd.channel, "RESTORE", cmd.channel_timeout_ns);
    if (!kencrypt.ok()) return fail(kencrypt.status().code(),
                                    kencrypt.status().message());
    return restore_with_key(cmd, *kencrypt);
  }

  // ---- persistent snapshot store (store/, rollback defense) -------------------
  struct CounterGrant {
    uint64_t counter = 0;
    Bytes key;  // empty for ADVANCE (no sealing key comes back)
  };

  // Attested key exchange with the monotonic-counter service. Mirrors
  // owner_key_exchange, with two additions: the request carries a counter
  // argument, and the reply must verify under the counter-service public key
  // baked into the image (config blob 3) over a transcript that includes our
  // fresh DH value — so the untrusted operator relaying these messages can
  // drop a grant (availability) but can neither forge nor replay one.
  Result<CounterGrant> counter_key_exchange(sim::Channel::End& ch,
                                            std::string_view verb,
                                            uint64_t counter_arg,
                                            uint64_t timeout_ns) {
    Bytes membership_blob = embedded_quorum_membership_blob();
    Bytes pk_blob = embedded_counter_pk_blob();
    if (pk_blob.empty() && membership_blob.empty())
      return Error(ErrorCode::kFailedPrecondition,
                   "image built without a counter-service key");
    MIG_ASSIGN_OR_RETURN(QuotedDh q, quoted_dh());
    Writer req;
    req.str(std::string(verb));
    req.u64(counter_arg);
    req.bytes(q.dh.pub());
    req.bytes(q.quote);
    wan_round_trip();
    ch.send(env_->ctx(), req.take());
    std::optional<Bytes> reply_in = ch.recv_timeout(env_->ctx(), timeout_ns);
    if (!reply_in.has_value())
      return Error(ErrorCode::kDeadlineExceeded,
                   "counter service never answered");
    Bytes reply = std::move(*reply_in);
    if (!membership_blob.empty())
      return verify_quorum_grant(reply, verb, q.dh, membership_blob);
    MIG_ASSIGN_OR_RETURN(CounterGrantReply rep, parse_granted(reply));
    env_->work(env_->cost().sig_verify_ns);
    if (!crypto::sig_verify(crypto::BigNum::from_bytes(pk_blob),
                            counter_grant_transcript(verb, q.dh.pub(), rep),
                            rep.sig))
      return Error(ErrorCode::kAuthFailure,
                   "counter-service signature invalid");
    if (rep.counter == 0)
      return Error(ErrorCode::kAuthFailure, "counter 0 is never granted");
    return open_grant(q.dh, "ctr-channel", rep.counter, rep.dh_pub_s,
                      rep.enc_key);
  }

  // A well-formed counter reply that is not a CTRGRANT is the service's
  // refusal (kPermissionDenied, which the callers treat as a lost lease).
  static Result<CounterGrantReply> parse_granted(ByteSpan reply) {
    MIG_ASSIGN_OR_RETURN(CounterGrantReply rep, parse_counter_grant(reply));
    if (rep.tag != "CTRGRANT")
      return Error(ErrorCode::kPermissionDenied,
                   "counter service refused: " + rep.tag);
    return rep;
  }

  // Key-open tail shared by both grant formats: a grant without a sealed key
  // (ADVANCE) costs no DH work.
  Result<CounterGrant> open_grant(const sgx::DhInitiator& dh,
                                  std::string_view label, uint64_t counter,
                                  ByteSpan dh_pub_s, ByteSpan enc_key) {
    CounterGrant grant;
    grant.counter = counter;
    if (!enc_key.empty()) {
      MIG_ASSIGN_OR_RETURN(grant.key, dh.open(label, dh_pub_s, enc_key));
    }
    return grant;
  }

  // Quorum-mode reply verification (§ docs/store.md "replicated counter"):
  // the enclave accepts a grant only when f+1 *distinct pinned* replicas
  // signed records agreeing on (counter, key_commit), each record is bound
  // to our fresh DH value via the signed transcript, and each record's
  // newest audit-log leaf proves inclusion under its co-signed Merkle root.
  // A record failing any check is excluded individually — up to f Byzantine
  // replicas (forged signatures, stale counters, equivocating roots) cannot
  // block a grant backed by the f+1 honest ones, and can never assemble a
  // quorum of their own.
  Result<CounterGrant> verify_quorum_grant(const Bytes& reply,
                                           std::string_view verb,
                                           const sgx::DhInitiator& dh,
                                           const Bytes& membership_blob) {
    auto membership = parse_quorum_membership(membership_blob);
    if (!membership.ok())
      return Error(ErrorCode::kFailedPrecondition,
                   "image carries a malformed quorum membership");
    if (!is_quorum_reply(reply)) {
      // Legacy-format reply to a quorum-pinned enclave. A refusal is still
      // meaningful — the untrusted coordinator forwards the replicas'
      // matching refusal verbatim, and acting on it achieves nothing that
      // dropping our traffic could not. A single-signer CTRGRANT, however,
      // can never satisfy the pinned membership: reject it outright so a
      // compromised operator cannot downgrade us to one signer.
      MIG_RETURN_IF_ERROR(parse_granted(reply).status());
      return Error(ErrorCode::kAuthFailure,
                   "single-signer grant rejected: enclave pins a replica quorum");
    }
    MIG_ASSIGN_OR_RETURN(QuorumReplyEnvelope env, parse_quorum_reply(reply));

    // Per-record verification: pinned id, Schnorr over the reply-bound
    // transcript, Merkle inclusion of the newest leaf under the signed root.
    std::vector<const QuorumReplyRecord*> valid;
    for (size_t i = 0; i < env.records.size(); ++i) {
      const QuorumReplyRecord& rec = env.records[i];
      const QuorumMember* member = nullptr;
      for (const QuorumMember& m : membership->members)
        if (m.id == rec.replica_id) member = &m;
      if (member == nullptr) continue;  // unpinned replica: ignore
      env_->work(env_->cost().sig_verify_ns);
      Bytes transcript = quorum_reply_transcript(verb, dh.pub(), rec);
      if (!crypto::sig_verify(crypto::BigNum::from_bytes(member->pk),
                              transcript, env.sigs[i]))
        continue;
      crypto::Digest root;
      std::copy(rec.root.begin(), rec.root.end(), root.begin());
      std::vector<crypto::Digest> proof;
      proof.reserve(rec.proof.size());
      for (const Bytes& node : rec.proof) {
        crypto::Digest d;
        std::copy(node.begin(), node.end(), d.begin());
        proof.push_back(d);
      }
      if (!crypto::merkle_verify_inclusion(crypto::merkle_leaf_hash(rec.leaf),
                                           rec.tree_size - 1, rec.tree_size,
                                           proof, root))
        continue;
      valid.push_back(&rec);
    }

    // Quorum assembly: the (counter, key_commit) pair backed by the most
    // distinct replicas must clear f+1. Parsing already rejected duplicate
    // replica ids, so counting records counts replicas.
    std::vector<const QuorumReplyRecord*> winners;
    for (const QuorumReplyRecord* a : valid) {
      std::vector<const QuorumReplyRecord*> group;
      for (const QuorumReplyRecord* b : valid)
        if (b->counter == a->counter &&
            crypto::ct_equal(ByteSpan(b->key_commit), ByteSpan(a->key_commit)))
          group.push_back(b);
      if (group.size() > winners.size()) winners = std::move(group);
    }
    if (winners.size() < membership->quorum())
      return Error(ErrorCode::kAuthFailure,
                   "quorum not reached: " + std::to_string(winners.size()) +
                       " of " + std::to_string(membership->quorum()) +
                       " required matching signed replies");

    // Any winning record carries the same key (its commitment is part of the
    // quorum match); decrypt from the first and check it against the
    // co-signed commitment before trusting it.
    const QuorumReplyRecord& rec = *winners.front();
    MIG_ASSIGN_OR_RETURN(CounterGrant grant,
                         open_grant(dh, "qrm-channel", rec.counter,
                                    rec.dh_pub_s, rec.enc_key));
    crypto::Digest commit = crypto::Sha256::hash(grant.key);
    if (!crypto::ct_equal(ByteSpan(commit), ByteSpan(rec.key_commit)))
      return Error(ErrorCode::kAuthFailure,
                   "granted key does not match the quorum's key commitment");
    return grant;
  }

  // Stale-fork fence: the service counter moved past this instance's epoch,
  // so another instance of this enclave was restored (or committed a live
  // migration) meanwhile. At-most-one-live-lease says this copy dies, the
  // same way a post-serve source does: global flag stays set forever, every
  // worker the OS resumes spins forever.
  ControlReply fence_stale_epoch() {
    env_->write_u64(kOffGlobalFlag, 1);
    env_->write_u64(kOffSelfDestroyed, 1);
    obs::instant(env_->ctx(), "store.fenced", "sdk");
    obs::metrics().add("store.fences");
    obs::flight(env_->ctx(), "sdk.control", "fail_closed",
                "stale counter epoch fence; enclave self-destroyed");
    return fail(ErrorCode::kAborted,
                "counter advanced past this instance's epoch; self-destroyed");
  }

  // ---- kStoreSnapshot ---------------------------------------------------------
  ControlReply store_snapshot(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    uint64_t epoch = env_->read_u64(kOffCounterEpoch);
    auto grant = counter_key_exchange(*cmd.channel, "SEALGRANT", epoch,
                                      cmd.channel_timeout_ns);
    if (!grant.ok())
      return fail(grant.status().code(), grant.status().message());
    if (epoch != 0 && grant->counter != epoch) return fence_stale_epoch();
    // Record the binding before capture, so the snapshot's own meta page
    // carries the epoch it was sealed at.
    env_->write_u64(kOffCounterEpoch, grant->counter);
    reach_quiescent_point();
    charge_dump_ = cmd.chunk_bytes == 0;
    auto c = capture();
    charge_dump_ = true;
    if (!c.ok()) {
      env_->write_u64(kOffGlobalFlag, 0);
      return fail(c.status().code(), c.status().message());
    }
    SnapshotEnvelope envelope;
    crypto::Digest mre = own_mrenclave();
    envelope.mrenclave.assign(mre.begin(), mre.end());
    envelope.counter = grant->counter;
    envelope.inner = seal_checkpoint(*c, grant->key, cmd);
    // A snapshot is not a migration: execution continues right away.
    env_->write_u64(kOffGlobalFlag, 0);
    obs::metrics().add("store.snapshots_sealed");
    ControlReply reply;
    reply.blob = encode_snapshot_envelope(envelope);
    return reply;
  }

  // ---- kStoreRestore ----------------------------------------------------------
  ControlReply store_restore(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
    auto envelope = parse_snapshot_envelope(cmd.blob);
    if (!envelope.ok())
      return fail(envelope.status().code(),
                  "snapshot rejected: " + envelope.status().message());
    if (!crypto::ct_equal(ByteSpan(envelope->mrenclave),
                          ByteSpan(own_mrenclave())))
      return fail(ErrorCode::kAuthFailure,
                  "snapshot belongs to a different enclave");
    // OPENGRANT consumes the epoch: it succeeds only if the envelope's
    // counter is still current, and the counter advances past it — the same
    // snapshot can never be opened twice. The outer counter field is only a
    // hint; tampering with it yields a key for the wrong counter value and
    // the MAC check below rejects the payload.
    auto grant = counter_key_exchange(*cmd.channel, "OPENGRANT",
                                      envelope->counter,
                                      cmd.channel_timeout_ns);
    if (!grant.ok())
      return fail(grant.status().code(), grant.status().message());
    cmd.blob = std::move(envelope->inner);
    ControlReply reply = restore_with_key(cmd, grant->key);
    if (!reply.status.ok()) return reply;
    // restore_with_key rewrote the meta page with the snapshot's (older)
    // epoch; this instance's lease is the value OPENGRANT advanced to.
    env_->write_u64(kOffCounterEpoch, grant->counter);
    obs::metrics().add("store.snapshots_opened");
    return reply;
  }

  // ---- kAdvanceCounter --------------------------------------------------------
  // Posted by the migration layer after a committed live migration: bump the
  // counter so every snapshot sealed before the migration is dead ciphertext
  // (rollback defense for the live path).
  ControlReply advance_counter(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
    if (self_destroyed())
      return fail(ErrorCode::kAborted, "enclave has self-destroyed");
    uint64_t epoch = env_->read_u64(kOffCounterEpoch);
    auto grant = counter_key_exchange(*cmd.channel, "ADVANCE", epoch,
                                      cmd.channel_timeout_ns);
    if (!grant.ok()) {
      // A refusal means the lease is gone: another instance advanced past
      // us. Fence conservatively — a forged refusal only achieves what the
      // operator could do anyway (kill this instance); it can never produce
      // two live leases. Timeouts and bad signatures keep the epoch: purely
      // an availability failure, the caller may retry.
      if (grant.status().code() == ErrorCode::kPermissionDenied)
        return fence_stale_epoch();
      return fail(grant.status().code(), grant.status().message());
    }
    env_->write_u64(kOffCounterEpoch, grant->counter);
    obs::instant(env_->ctx(), "store.counter_advanced", "sdk",
                 {{"epoch", grant->counter}});
    return {};
  }

  // ---- agent-enclave roles (§VI-D) ---------------------------------------------
  // Agent key store: (mrenclave, key) entries in the agent's heap. The
  // count lives at kOffAgentHasKey; entry i at heap_off + 64*i.
  ControlReply agent_fetch_key(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no channel");
    crypto::Digest src_mre{};
    auto key = key_from_source(*cmd.channel, cmd.channel_timeout_ns,
                               /*check_source_mre=*/false, &src_mre);
    if (!key.ok()) return fail(key.status().code(), key.status().message());
    if (key->size() != 32)
      return fail(ErrorCode::kInvalidArgument, "bad key size");
    uint64_t n = env_->read_u64(kOffAgentHasKey);
    uint64_t entry = l_->heap_off + 64 * n;
    if (entry + 64 > l_->size)
      return fail(ErrorCode::kResourceExhausted, "agent key store full");
    env_->write_bytes(entry, src_mre);
    env_->write_bytes(entry + 32, *key);
    env_->write_u64(kOffAgentHasKey, n + 1);
    return {};
  }

  ControlReply agent_serve_local(ControlCmd& cmd) {
    if (!cmd.agent_request.has_value())
      return fail(ErrorCode::kInvalidArgument, "no request");
    if (env_->read_u64(kOffAgentHasKey) == 0)
      return fail(ErrorCode::kFailedPrecondition, "agent holds no key");
    const AgentRequest& req = *cmd.agent_request;
    // Local attestation: the report must be targeted at us (MAC verifies
    // with our report key), come from the same developer (MRSIGNER), and
    // bind the DH value.
    auto report_key = env_->egetkey(sgx::KeyName::kReport);
    if (!report_key.ok()) return fail(ErrorCode::kInternal, "EGETKEY failed");
    crypto::Digest mac =
        crypto::hmac_sha256(*report_key, req.report.serialize_body());
    if (!crypto::ct_equal(mac, req.report.mac))
      return fail(ErrorCode::kAuthFailure, "report not targeted at agent");
    if (!crypto::ct_equal(req.report.mrsigner, own_mrsigner()))
      return fail(ErrorCode::kAuthFailure, "requester has foreign signer");
    if (!sgx::binds_dh(req.report.report_data, req.dh_pub))
      return fail(ErrorCode::kAuthFailure, "report does not bind DH value");

    // Look the key up by the requester's measurement.
    Bytes kmigrate;
    uint64_t n = env_->read_u64(kOffAgentHasKey);
    for (uint64_t i = 0; i < n; ++i) {
      Bytes mre = env_->read_bytes(l_->heap_off + 64 * i, 32);
      if (crypto::ct_equal(mre, req.report.mrenclave)) {
        kmigrate = env_->read_bytes(l_->heap_off + 64 * i + 32, 32);
        break;
      }
    }
    auto answer =
        sgx::dh_answer(deps_->rng, charge(), sgx::DhCost::local(env_->cost()),
                       "agent-channel", req.dh_pub, kmigrate);
    if (!answer.ok()) return fail(ErrorCode::kAuthFailure, "degenerate DH");
    if (kmigrate.empty())
      return fail(ErrorCode::kNotFound, "no key parked for this enclave");
    ControlReply reply;
    Writer w;
    w.bytes(answer->pub);
    w.bytes(answer->sealed);
    reply.blob = w.take();
    return reply;
  }

  // ---- kProvision (launch-time, Fig. 7 left) -----------------------------------
  ControlReply provision(ControlCmd& cmd) {
    if (!cmd.channel.has_value())
      return fail(ErrorCode::kInvalidArgument, "no owner channel");
    auto prov_key =
        owner_key_exchange(*cmd.channel, "PROVISION", cmd.channel_timeout_ns);
    if (!prov_key.ok()) return fail(prov_key.status().code(),
                                    prov_key.status().message());
    // Decrypt the embedded identity private key and validate it against the
    // embedded public key (a wrong provisioning key yields garbage).
    Bytes enc_sk = config_blob(1);
    Bytes nonce(12, 0x5e);
    crypto::chacha20_xor(*prov_key, nonce, 0, enc_sk);
    crypto::BigNum sk = crypto::BigNum::from_bytes(enc_sk);
    const crypto::DhGroup& g = crypto::DhGroup::oakley2();
    env_->work(env_->cost().dh_keygen_ns);
    if (!(g.pow_gq(sk) == embedded_identity_pk()))
      return fail(ErrorCode::kAuthFailure, "provisioning key invalid");
    env_->write_bytes(kOffIdentityPriv, sk.to_bytes_padded(160));
    env_->write_u64(kOffProvisioned, 1);
    return {};
  }

  EnclaveEnv* env_;
  ControlDeps* deps_;
  const Layout* l_;
  RestoreState restore_state_;
  DeltaState delta_;
  PageServeState page_serve_;
  PageApplyState page_apply_;
  // Page-size scratch arena shared by the delta dump, the remote-page
  // service and kFinishRestore. The engine outlives every command, so a
  // multi-round migration recycles the same few buffers instead of
  // allocating one per page.
  util::BufferPool page_pool_{sgx::kPageSize, 8};
  // False only while a chunked prepare captures state: the pipeline charges
  // dump traversal per chunk instead (see charge_page_dump()).
  bool charge_dump_ = true;
};

}  // namespace

namespace {

const char* cmd_name(ControlCmd::Type t) {
  switch (t) {
    case ControlCmd::Type::kProvision: return "ctl.provision";
    case ControlCmd::Type::kPrepareCheckpoint: return "ctl.prepare_checkpoint";
    case ControlCmd::Type::kServeKey: return "ctl.serve_key";
    case ControlCmd::Type::kCancelMigration: return "ctl.cancel_migration";
    case ControlCmd::Type::kRestore: return "ctl.restore";
    case ControlCmd::Type::kFinishRestore: return "ctl.finish_restore";
    case ControlCmd::Type::kOwnerCheckpoint: return "ctl.owner_checkpoint";
    case ControlCmd::Type::kOwnerRestore: return "ctl.owner_restore";
    case ControlCmd::Type::kAgentFetchKey: return "ctl.agent_fetch_key";
    case ControlCmd::Type::kAgentServeLocal: return "ctl.agent_serve_local";
    case ControlCmd::Type::kStoreSnapshot: return "ctl.store_snapshot";
    case ControlCmd::Type::kStoreRestore: return "ctl.store_restore";
    case ControlCmd::Type::kAdvanceCounter: return "ctl.advance_counter";
    case ControlCmd::Type::kDumpBaseline: return "ctl.dump_baseline";
    case ControlCmd::Type::kDumpDelta: return "ctl.dump_delta";
    case ControlCmd::Type::kServePages: return "ctl.serve_pages";
    case ControlCmd::Type::kApplyPages: return "ctl.apply_pages";
    case ControlCmd::Type::kAbortPostcopy: return "ctl.abort_postcopy";
    case ControlCmd::Type::kNaiveDump: return "ctl.naive_dump";
    case ControlCmd::Type::kShutdown: return "ctl.shutdown";
  }
  return "ctl.unknown";
}

}  // namespace

void control_thread_main(EnclaveEnv& env, ControlMailbox& mailbox,
                         ControlDeps& deps) {
  ControlEngine engine(env, deps);
  for (;;) {
    ControlCmd cmd = mailbox.wait_cmd(env.ctx());
    if (cmd.type == ControlCmd::Type::kShutdown) {
      mailbox.reply(env.ctx(), {});
      return;
    }
    obs::Span<sim::ThreadCtx> span(env.ctx(), cmd_name(cmd.type), "sdk");
    ControlReply reply = engine.handle(cmd);
    obs::metrics().add("sdk.control_cmds");
    if (!reply.status.ok()) {
      // Central failure forensics: every command the engine refuses lands in
      // the flight recorder with its command name and root-cause status, so
      // an aborted migration can name the control-path step that killed it.
      obs::flight(env.ctx(), "sdk.control", cmd_name(cmd.type),
                  reply.status.to_string());
    }
    span.finish({{"ok", reply.status.ok()}});
    mailbox.reply(env.ctx(), std::move(reply));
  }
}

}  // namespace mig::sdk
