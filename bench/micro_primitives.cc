// google-benchmark microbenchmarks of the real primitives underneath the
// simulation: hash/cipher throughput, big-number ops, signatures, and the
// deterministic executor's scheduling overhead. These measure WALL time of
// the implementations themselves (the figure benches report virtual time).
//
// The custom main() additionally emits BENCH_JSON "hotpath" rows comparing
// the copying checkpoint data path against the zero-copy one (buffer arena,
// batched AEAD, ByteChain framing) stage by stage at 64 KB and 8 MB of
// state. These are wall-time figures, so bench_regression holds them with a
// loose wildcard tolerance rather than the exact-match rule.
#include <benchmark/benchmark.h>

#include <chrono>
#include <span>

#include "bench_common.h"
#include "crypto/aead.h"
#include "crypto/bignum.h"
#include "crypto/ciphers.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sdk/chunk_wire.h"
#include "sim/executor.h"
#include "util/buffer_pool.h"
#include "util/iovec.h"

namespace {

using namespace mig;

void BM_Sha256(benchmark::State& state) {
  Bytes data = crypto::Drbg(to_bytes("s")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(4096);

void BM_ChaCha20(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes nonce(12, 1);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    crypto::chacha20_xor(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(64 * 1024);

void BM_Rc4(benchmark::State& state) {
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    crypto::Rc4(to_bytes("key")).xor_stream(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(4096);

void BM_DesCbc(benchmark::State& state) {
  Bytes key = hex_decode("0123456789abcdef");
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::des_cbc_encrypt(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesCbc)->Arg(4096);

void BM_Aes128Cbc(benchmark::State& state) {
  Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv(16, 0);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes128_cbc_encrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Cbc)->Arg(4096);

void BM_SealOpen(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    Bytes sealed = crypto::seal(crypto::CipherAlg::kChaCha20, key, data);
    auto opened = crypto::open(key, sealed);
    benchmark::DoNotOptimize(opened.ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SealOpen)->Arg(20 * 1024);

void BM_BigNumModExp(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("dh"));
  const auto& g = crypto::DhGroup::oakley2();
  crypto::BigNum e = crypto::BigNum::from_bytes(rng.generate(128)) % g.q;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.g.modexp(e, g.p));
  }
}
BENCHMARK(BM_BigNumModExp);

// The RSA-like core of apps::block_gnupg: a 128-bit message to the 65537th
// power modulo a 256-bit odd n.
void BM_ModExp256(benchmark::State& state) {
  crypto::BigNum n = crypto::BigNum::from_hex(
      "c9f2d8351629bbbd6cf5cc9a9c1f6af3cba7569d9f30cfd6a1a9b0c5e2fa4d5f");
  crypto::BigNum m =
      crypto::BigNum::from_bytes(crypto::Drbg(to_bytes("m")).generate(16));
  crypto::BigNum e(65537);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.modexp(e, n));
  }
}
BENCHMARK(BM_ModExp256);

void BM_DhGenerate(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("dh"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dh_generate(rng));
  }
}
BENCHMARK(BM_DhGenerate);

void BM_DhShared(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("dh"));
  crypto::DhKeyPair a = crypto::dh_generate(rng);
  crypto::DhKeyPair b = crypto::dh_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dh_shared(a.priv, b.pub));
  }
}
BENCHMARK(BM_DhShared);

void BM_SchnorrSign(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("sig"));
  crypto::SigKeyPair kp = crypto::sig_keygen(rng);
  Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sig_sign(kp.sk, msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("sig"));
  crypto::SigKeyPair kp = crypto::sig_keygen(rng);
  Bytes msg = to_bytes("benchmark message");
  Bytes sig = crypto::sig_sign(kp.sk, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sig_verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_ExecutorContextSwitch(benchmark::State& state) {
  // Cost of one work()-slice round trip through the scheduler.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Executor exec(2);
    state.ResumeTiming();
    exec.spawn("a", [](sim::ThreadCtx& ctx) {
      for (int i = 0; i < 1000; ++i) ctx.work(1000);
    });
    exec.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorContextSwitch)->Unit(benchmark::kMillisecond);

// One hand-off between two sim threads: both alternate work() bursts on one
// model CPU, so every slice switches fibers. Items = hand-offs.
void BM_ExecutorSwitch(benchmark::State& state) {
  constexpr int kSlices = 1000;
  for (auto _ : state) {
    sim::Executor exec(1);
    for (int t = 0; t < 2; ++t)
      exec.spawn("spin", [](sim::ThreadCtx& ctx) {
        for (int i = 0; i < kSlices / 2; ++i) ctx.work(1000);
      });
    benchmark::DoNotOptimize(exec.run());
  }
  state.SetItemsProcessed(state.iterations() * kSlices);
}
BENCHMARK(BM_ExecutorSwitch);

// One Event::set -> wake: two threads ping-pong over a chain of events, each
// waiting on the previous one and setting the next. Items = wakes.
void BM_EventWake(benchmark::State& state) {
  constexpr size_t kWakes = 1000;
  for (auto _ : state) {
    sim::Executor exec(1);
    std::vector<std::unique_ptr<sim::Event>> ping;
    for (size_t i = 0; i < kWakes; ++i)
      ping.push_back(std::make_unique<sim::Event>(exec));
    for (size_t t = 0; t < 2; ++t)
      exec.spawn("ping", [&ping, t](sim::ThreadCtx& ctx) {
        for (size_t i = t; i < kWakes; i += 2) {
          if (i > 0) ping[i - 1]->wait(ctx);
          ping[i]->set(ctx);
        }
      });
    benchmark::DoNotOptimize(exec.run());
  }
  state.SetItemsProcessed(state.iterations() * kWakes);
}
BENCHMARK(BM_EventWake);

// --- Zero-copy hotpath rows ------------------------------------------------

// Best-of-N wall time of fn(), in nanoseconds. Best-of damps scheduler noise
// the way --benchmark_repetitions would, without the harness overhead.
uint64_t best_of(int reps, const std::function<void()>& fn) {
  uint64_t best = ~0ull;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min<uint64_t>(
        best,
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
  return best;
}

struct StagePair {
  uint64_t copy_ns;
  uint64_t zerocopy_ns;
};

constexpr size_t kHotChunk = 16 * 1024;
constexpr int kHotReps = 5;

std::vector<ByteSpan> chunk_spans(const Bytes& state) {
  std::vector<ByteSpan> spans;
  for (size_t off = 0; off < state.size(); off += kHotChunk)
    spans.push_back(ByteSpan(state).subspan(
        off, std::min(kHotChunk, state.size() - off)));
  return spans;
}

// Stage 1 — dump: staging each chunk into a freshly allocated buffer vs
// recycling one arena buffer (what the control engine's page pool does).
StagePair hot_dump(const Bytes& state) {
  auto spans = chunk_spans(state);
  StagePair out;
  out.copy_ns = best_of(kHotReps, [&] {
    for (ByteSpan s : spans) {
      Bytes buf(s.begin(), s.end());
      benchmark::DoNotOptimize(buf.data());
    }
  });
  util::BufferPool pool(kHotChunk, 1);
  out.zerocopy_ns = best_of(kHotReps, [&] {
    for (ByteSpan s : spans) {
      util::BufferPool::Handle h = pool.acquire();
      std::copy(s.begin(), s.end(), h->begin());
      benchmark::DoNotOptimize(h->data());
    }
  });
  return out;
}

// Stage 2 — seal: one seal_chunk() call per chunk vs one seal_batch() call
// over the run (shared HKDF-Extract, cipher scratch reused).
StagePair hot_seal(const Bytes& state, const Bytes& key) {
  auto spans = chunk_spans(state);
  StagePair out;
  out.copy_ns = best_of(kHotReps, [&] {
    crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
    for (size_t i = 0; i < spans.size(); ++i) {
      auto sealed = sealer.seal_chunk(i, spans[i]);
      MIG_CHECK(sealed.ok());
      benchmark::DoNotOptimize(sealed->data());
    }
  });
  out.zerocopy_ns = best_of(kHotReps, [&] {
    crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
    auto sealed = sealer.seal_batch(0, spans);
    MIG_CHECK(sealed.ok());
    benchmark::DoNotOptimize(sealed->data());
  });
  return out;
}

// Stage 3 — frame: materializing every CHNK frame into its own buffer vs
// building a ByteChain whose payload segments just reference the sealed
// chunks (the copy is deferred to the single gather-send).
StagePair hot_frame(const std::vector<Bytes>& sealed) {
  StagePair out;
  out.copy_ns = best_of(kHotReps, [&] {
    for (size_t i = 0; i < sealed.size(); ++i) {
      Bytes f = sdk::encode_chunk_frame(i, sealed[i]);
      benchmark::DoNotOptimize(f.data());
    }
  });
  out.zerocopy_ns = best_of(kHotReps, [&] {
    util::ByteChain chain;
    for (size_t i = 0; i < sealed.size(); ++i)
      sdk::chain_chunk_frame(chain, i, sealed[i]);
    benchmark::DoNotOptimize(chain.size());
  });
  return out;
}

// Stage 4 — send: assembling the final MGC2 blob by copying every sealed
// chunk (encode path) vs one exact-reserve flatten of the chain into a
// reused buffer.
StagePair hot_send(const std::vector<Bytes>& sealed, uint64_t total_bytes,
                   ByteSpan root) {
  sdk::ChunkedHeader h;
  h.alg = crypto::CipherAlg::kChaCha20;
  h.chunk_bytes = kHotChunk;
  h.chunk_count = sealed.size();
  h.total_bytes = total_bytes;
  StagePair out;
  out.copy_ns = best_of(kHotReps, [&] {
    Bytes blob = sdk::encode_chunked_checkpoint(h, sealed, root);
    benchmark::DoNotOptimize(blob.data());
  });
  std::vector<ByteSpan> spans(sealed.begin(), sealed.end());
  Bytes wire;
  out.zerocopy_ns = best_of(kHotReps, [&] {
    util::ByteChain chain;
    sdk::chain_chunked_checkpoint(chain, h, spans, root);
    wire.clear();
    chain.flatten_into(wire);
    benchmark::DoNotOptimize(wire.data());
  });
  return out;
}

void emit_hotpath_rows() {
  for (uint64_t state_kb : {64ull, 8192ull}) {
    const uint64_t state_bytes = state_kb * 1024;
    Bytes key = crypto::Drbg(to_bytes("hotpath-key")).generate(32);
    Bytes state = crypto::Drbg(to_bytes("hotpath-state")).generate(state_bytes);

    crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
    auto spans = chunk_spans(state);
    auto sealed = sealer.seal_batch(0, spans);
    MIG_CHECK(sealed.ok());
    auto root = sealer.integrity_root();
    MIG_CHECK(root.ok());
    uint64_t sealed_bytes = 0;
    for (const Bytes& s : *sealed) sealed_bytes += s.size();

    struct Named {
      const char* stage;
      StagePair p;
      uint64_t bytes;  // denominator: plaintext for dump/seal, wire for rest
    };
    const Named rows[] = {
        {"dump", hot_dump(state), state_bytes},
        {"seal", hot_seal(state, key), state_bytes},
        {"frame", hot_frame(*sealed), sealed_bytes},
        {"send", hot_send(*sealed, state_bytes, *root), sealed_bytes},
    };
    for (const Named& row : rows) {
      // Floor at 1: a sub-0.01 ns/byte stage (chain building) must not emit
      // 0, which the regression gate treats as exact even under a tolerance.
      bench::JsonLine("hotpath")
          .str("stage", row.stage)
          .num("state_kb", state_kb)
          .num("chunk_kb", kHotChunk / 1024)
          .num("copy_ns_per_byte_x100",
               std::max<uint64_t>(1, row.p.copy_ns * 100 / row.bytes))
          .num("zerocopy_ns_per_byte_x100",
               std::max<uint64_t>(1, row.p.zerocopy_ns * 100 / row.bytes))
          .emit();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  emit_hotpath_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
