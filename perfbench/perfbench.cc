// Two-clock migration benchmark driver.
//
// Runs one closed-loop migration workload through the public entry points
// (fleet::FleetScheduler::run, migration::VmMigrationSession::run,
// sdk::EnclaveHost::ecall) and prints one JSON object with every metric on
// both clocks: host (what the simulator costs to run) and model (the
// simulator's deterministic virtual time). perfbench/run.py builds this
// binary, pins it to one CPU and turns its output into the benchmark's
// result line; README.md in this directory explains the workloads and how
// to read the numbers.
//
//   mig_perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// A run is a sequence of rounds. A round builds a fresh world from the seed
// (the set-up), then runs a fixed number of ops. An op is one migration leg
// (legs alternate A->B, B->A) or one whole host evacuation. Every round
// replays the same inputs, so every round must produce the same model
// values and counts; the driver compares them.
#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv.h"
#include "crypto/aead.h"
#include "crypto/ciphers.h"
#include "crypto/dh.h"
#include "crypto/sha256.h"
#include "fleet/fleet.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quorum/quorum.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "store/counter_service.h"
#include "util/serde.h"

namespace {

using namespace mig;

// ---------------------------------------------------------------------------
// Host clocks.

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of integer samples.
uint64_t percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// CPU speed. A shared cloud vCPU runs the same code up to 2x faster or
// slower from one minute to the next (frequency, co-tenants), which no
// number of repeats averages out. So a probe thread on the same CPU times a
// fixed calibration kernel every kCalPeriod, and an op's host time is also
// reported rescaled to a CPU that runs the kernel in its reference time.
// Each workload has its own kernel, a miniature of its hot loop, because
// the slowdown is not the same for every instruction mix: the byte-wise
// cipher kernel follows hybrid_kv's legs within a few percent, while a
// branch-free multiply kernel missed about half of their swing and, on
// evacuate_quorum, drifted 15-20% away from the legs that the bignum
// kernel follows.

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

// Shaped like BigNum's hot loops: a 32-limb (1024-bit) schoolbook product
// as in operator*, then Knuth-D style quotient digits (a 64-bit division)
// each followed by a multiply-and-subtract with a data-dependent borrow
// branch, as in divmod. The digits are not corrected, so the result is not
// a remainder; only the instruction mix matters.
uint64_t cal_bignum() {
  constexpr size_t n = 32;
  uint32_t a[n], b[n], u[2 * n + 1];
  uint32_t x = 0x9e3779b9u;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    a[i] = next();
    b[i] = next();
  }
  b[n - 1] |= 0x80000000u;  // normalised divisor
  for (int r = 0; r < 30; ++r) {
    std::fill(u, u + 2 * n + 1, 0u);
    for (size_t i = 0; i < n; ++i) {
      uint64_t carry = 0;
      for (size_t j = 0; j < n; ++j) {
        uint64_t cur = u[i + j] + uint64_t{a[i]} * b[j] + carry;
        u[i + j] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
      }
      u[i + n] += static_cast<uint32_t>(carry);
    }
    for (size_t j = n + 1; j-- > 0;) {
      uint64_t num = (uint64_t{u[j + n]} << 32) | u[j + n - 1];
      uint64_t q = std::min<uint64_t>(num / b[n - 1], 0xffffffffu);
      int64_t borrow = 0;
      uint64_t carry = 0;
      for (size_t i = 0; i < n && i + j < 2 * n + 1; ++i) {
        uint64_t p = q * b[i] + carry;
        carry = p >> 32;
        int64_t t = int64_t{u[i + j]} - borrow - int64_t(p & 0xffffffffu);
        if (t < 0) {
          t += int64_t{1} << 32;
          borrow = 1;
        } else {
          borrow = 0;
        }
        u[i + j] = static_cast<uint32_t>(t);
      }
    }
    for (size_t i = 0; i < n; ++i) a[i] ^= u[i] ^ next();
  }
  return a[0] ^ a[n - 1];
}

uint8_t cal_gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
    b >>= 1;
  }
  return p;
}

// Shaped like the byte-oriented AES round: a byte shuffle, S-box lookups,
// a round-key xor and GF(2^8) column mixing.
uint64_t cal_bytes() {
  static const auto box = [] {
    std::array<uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) t[i] = static_cast<uint8_t>(i * 167 + 13);
    return t;
  }();
  uint8_t s[16], k[16];
  for (int i = 0; i < 16; ++i) {
    s[i] = static_cast<uint8_t>(i * 29);
    k[i] = static_cast<uint8_t>(i * 71 + 5);
  }
  for (int r = 0; r < 500; ++r) {
    uint8_t t[16];
    for (int c = 0; c < 4; ++c)
      for (int q = 0; q < 4; ++q) t[((c + q) % 4) * 4 + q] = s[c * 4 + q];
    for (int i = 0; i < 16; ++i) s[i] = box[t[i]] ^ k[i];
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = s + 4 * c;
      uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = cal_gmul(a0, 14) ^ cal_gmul(a1, 11) ^ cal_gmul(a2, 13) ^
               cal_gmul(a3, 9);
      col[1] = cal_gmul(a0, 9) ^ cal_gmul(a1, 14) ^ cal_gmul(a2, 11) ^
               cal_gmul(a3, 13);
      col[2] = cal_gmul(a0, 13) ^ cal_gmul(a1, 9) ^ cal_gmul(a2, 14) ^
               cal_gmul(a3, 11);
      col[3] = cal_gmul(a0, 11) ^ cal_gmul(a1, 13) ^ cal_gmul(a2, 9) ^
               cal_gmul(a3, 14);
    }
  }
  uint64_t h = 0;
  for (uint8_t b : s) h = h * 131 + b;
  return h;
}

// A kernel calls no simulator code, so no change to the simulator changes
// its speed. ref_us is a typical CPU time of one kernel run on a 4-vCPU
// Intel Xeon (Sapphire Rapids) KVM guest, whose runs measured 250-430 us
// (bignum) and 226-632 us (bytes); it only fixes the scale of the *_ref_s
// metrics.
struct CalKernel {
  uint64_t (*run)();
  double ref_us;
};
constexpr CalKernel kCalBignum{&cal_bignum, 250};
constexpr CalKernel kCalBytes{&cal_bytes, 250};

class SpeedProbe {
 public:
  static constexpr auto kCalPeriod = std::chrono::milliseconds(20);

  // The kernel runs inside one host-time window.
  struct Window {
    double cpu_s = 0;     // CPU the kernel runs took from the window
    double speed = 0;     // mean of ref_us / kernel time; 0 = no run
    double kernel_us = 0; // median kernel time
  };

  void start(CalKernel kernel) {
    kernel_ = kernel;
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Paused while the profiler samples, so no profile sample lands in it.
  void pause(bool p) {
    std::lock_guard<std::mutex> l(mu_);
    paused_ = p;
  }

  Window window(double w0, double w1) const {
    std::lock_guard<std::mutex> l(mu_);
    Window w;
    std::vector<double> us;
    double speed_sum = 0;
    for (const Sample& s : samples_) {
      if (s.w0 < w0 || s.w1 > w1) continue;
      w.cpu_s += s.cpu_s;
      us.push_back(s.cpu_s * 1e6);
      speed_sum += kernel_.ref_us / us.back();
    }
    if (!us.empty()) w.speed = speed_sum / static_cast<double>(us.size());
    w.kernel_us = median(us);
    return w;
  }

 private:
  struct Sample {
    double w0, w1, cpu_s;
  };

  void loop() {
    std::unique_lock<std::mutex> l(mu_);
    while (!cv_.wait_for(l, kCalPeriod, [&] { return stop_; })) {
      if (paused_) continue;
      l.unlock();
      double w0 = wall_s(), c0 = thread_cpu_s();
      sink_ ^= kernel_.run();
      double c1 = thread_cpu_s(), w1 = wall_s();
      l.lock();
      samples_.push_back({w0, w1, c1 - c0});
    }
  }

  CalKernel kernel_{};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false, paused_ = false;
  std::vector<Sample> samples_;
  uint64_t sink_ = 0;  // keeps the kernel's result live
  std::thread thread_;
};

SpeedProbe g_speed;

// ---------------------------------------------------------------------------
// Benchmark-side spans: both clocks around the benchmark's own calls into
// each layer. Inclusive — a call that blocks in virtual time lets other sim
// threads run, and their host time lands inside the span. Kept in memory
// and written out as Chrome trace JSON when the run ends.

struct SpanRec {
  std::string name;
  uint32_t tid = 0;  // sim thread id, 0 outside the simulation
  int parent = -1;   // enclosing benchmark span on the same sim thread
  double host_b = 0, host_e = 0;
  uint64_t model_b = 0, model_e = 0;
};

class SpanLog {
 public:
  bool on = false;
  std::vector<SpanRec> recs;

  int open(const std::string& name, sim::ThreadCtx* ctx) {
    if (!on) return -1;
    uint32_t tid = ctx ? ctx->id() : 0;
    std::vector<int>& stack = open_[tid];
    SpanRec r;
    r.name = name;
    r.tid = tid;
    r.parent = stack.empty() ? -1 : stack.back();
    r.model_b = ctx ? ctx->now() : 0;
    r.host_b = wall_s();
    recs.push_back(std::move(r));
    stack.push_back(static_cast<int>(recs.size() - 1));
    return stack.back();
  }

  void close(int idx, sim::ThreadCtx* ctx) {
    if (idx < 0) return;
    SpanRec& r = recs[idx];
    r.host_e = wall_s();
    r.model_e = ctx ? ctx->now() : r.model_b;
    std::vector<int>& stack = open_[r.tid];
    if (!stack.empty() && stack.back() == idx) stack.pop_back();
  }

  // Chrome trace-event JSON; pid 1 = host clock, pid 2 = model clock.
  void write(const std::string& path, double host_origin) const {
    std::ofstream f(path);
    if (!f) return;
    f << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRec& r = recs[i];
      for (int clock = 1; clock <= 2; ++clock) {
        double ts = clock == 1 ? (r.host_b - host_origin) * 1e6 : r.model_b / 1e3;
        double dur = clock == 1 ? (r.host_e - r.host_b) * 1e6
                                : (r.model_e - r.model_b) / 1e3;
        f << (first ? "" : ",") << "{\"ph\":\"X\",\"pid\":" << clock
          << ",\"tid\":" << r.tid << ",\"name\":\"" << obs::json_escape(r.name)
          << "\",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":"
          << i << ",\"parent\":" << r.parent << "}}";
        first = false;
      }
    }
    f << "],\"otherData\":{\"pid1\":\"host clock\",\"pid2\":\"model clock\"}}\n";
  }

 private:
  std::map<uint32_t, std::vector<int>> open_;
};

SpanLog g_spans;

class SpanScope {
 public:
  SpanScope(const std::string& name, sim::ThreadCtx* ctx)
      : ctx_(ctx), idx_(g_spans.open(name, ctx)) {}
  ~SpanScope() { g_spans.close(idx_, ctx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  sim::ThreadCtx* ctx_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Sampling profile of the traced ops. While an op's run call is timed,
// SIGPROF fires every millisecond of process CPU time and records the
// interrupted instruction. After the run each sample is mapped through the
// binary's own symbol table to the primitive it was executing in: a leaf
// profile, so time in libc called from a primitive counts as "other".

enum Prim { kOther, kBigNum, kAes, kSha256, kNumPrims };
const char* const kPrimMetric[kNumPrims] = {
    nullptr, "prof.bignum_frac", "prof.aes_frac", "prof.sha256_frac"};

class Sampler {
 public:
  static constexpr size_t kMax = size_t{1} << 18;  // >= 262 s of CPU

  static Sampler& instance() {
    static Sampler s;
    return s;
  }

  void start() {
    if (pcs_.empty()) {
      pcs_.resize(kMax);
      struct sigaction sa {};
      sa.sa_sigaction = &Sampler::on_signal;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      sigemptyset(&sa.sa_mask);
      sigaction(SIGPROF, &sa, nullptr);
    }
    arm(1000);
  }
  void stop() { arm(0); }
  size_t taken() const { return std::min(n_.load(), kMax); }
  uintptr_t pc(size_t i) const { return pcs_[i]; }

 private:
  static void arm(long us) {
    itimerval t{};
    t.it_interval.tv_usec = t.it_value.tv_usec = us;
    setitimer(ITIMER_PROF, &t, nullptr);
  }

  static void on_signal(int, siginfo_t*, void* uc) {
    Sampler& s = instance();
    size_t i = s.n_.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMax) return;
    const mcontext_t& m = static_cast<ucontext_t*>(uc)->uc_mcontext;
#if defined(__x86_64__)
    s.pcs_[i] = static_cast<uintptr_t>(m.gregs[REG_RIP]);
#elif defined(__aarch64__)
    s.pcs_[i] = static_cast<uintptr_t>(m.pc);
#else
    (void)m;
#endif
  }

  std::vector<uintptr_t> pcs_;
  std::atomic<size_t> n_{0};
};

Prim classify(const std::string& fn, const std::string& file) {
  auto has = [&](const char* s) { return fn.find(s) != std::string::npos; };
  if (file == "bignum.cc" || has("BigNum")) return kBigNum;
  if (file == "aes128.cc" || has("Aes128") || has("aes128_")) return kAes;
  if (file == "sha256.cc" || has("Sha256")) return kSha256;
  return kOther;
}

// Function address ranges of this executable, from its ELF symbol table.
// Local symbols follow the STT_FILE entry of their source file, so helpers
// in an anonymous namespace are classified by file; global ones by name
// (without the parameter list).
class SymbolMap {
 public:
  SymbolMap() {
    uintptr_t base = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, size_t, void* out) {
          *static_cast<uintptr_t*>(out) = info->dlpi_addr;
          return 1;  // the first object is the executable itself
        },
        &base);
    std::ifstream f("/proc/self/exe", std::ios::binary);
    Elf64_Ehdr eh{};
    if (!f.read(reinterpret_cast<char*>(&eh), sizeof eh)) return;
    std::vector<Elf64_Shdr> sh(eh.e_shnum);
    f.seekg(static_cast<std::streamoff>(eh.e_shoff));
    f.read(reinterpret_cast<char*>(sh.data()), sh.size() * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr& s : sh) {
      if (!f || s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size()) continue;
      std::vector<Elf64_Sym> syms(s.sh_size / sizeof(Elf64_Sym));
      std::string names(sh[s.sh_link].sh_size, '\0');
      f.seekg(static_cast<std::streamoff>(s.sh_offset));
      f.read(reinterpret_cast<char*>(syms.data()), syms.size() * sizeof(Elf64_Sym));
      f.seekg(static_cast<std::streamoff>(sh[s.sh_link].sh_offset));
      f.read(names.data(), static_cast<std::streamsize>(names.size()));
      std::string file;
      for (const Elf64_Sym& y : syms) {
        if (y.st_name >= names.size()) continue;
        std::string name = names.c_str() + y.st_name;
        if (ELF64_ST_TYPE(y.st_info) == STT_FILE) {
          file = name.substr(name.rfind('/') + 1);
        } else if (ELF64_ST_TYPE(y.st_info) == STT_FUNC && y.st_size) {
          int st = 0;
          char* d = abi::__cxa_demangle(name.c_str(), nullptr, nullptr, &st);
          if (d) name = d;
          std::free(d);
          bool local = ELF64_ST_BIND(y.st_info) == STB_LOCAL;
          ranges_.push_back({base + y.st_value, base + y.st_value + y.st_size,
                             classify(name.substr(0, name.find('(')),
                                      local ? file : std::string())});
        }
      }
    }
    std::sort(ranges_.begin(), ranges_.end(),
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
  }

  Prim at(uintptr_t pc) const {
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), pc,
        [](uintptr_t v, const Range& r) { return v < r.lo; });
    if (it == ranges_.begin() || pc >= (--it)->hi) return kOther;
    return it->prim;
  }

 private:
  struct Range {
    uintptr_t lo, hi;
    Prim prim;
  };
  std::vector<Range> ranges_;
};

// ---------------------------------------------------------------------------
// KV value model. Mirrors the value pattern and checksum of apps/kv.cc so
// every GET can be checked against what the benchmark last SET.

uint64_t kv_checksum(uint64_t key, uint64_t len) {
  uint64_t s = key * 0x9e3779b97f4a7c15ULL + 0xabcdef;
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t i = 0; i < len; ++i) {
    if (i % 8 == 0) s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    h = (h ^ static_cast<uint8_t>(s >> (8 * (i % 8)))) * 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFillLen = 900;

// ---------------------------------------------------------------------------
// Per-op and per-round results.

struct OpResult {
  uint64_t leg = 0;
  bool ok = true;
  std::string why;
  double host_s = 0, cpu_s = 0;
  double wall_b = 0, wall_e = 0;  // host-time window of the run call
  uint64_t total_ns = 0, downtime_ns = 0, wire_bytes = 0, restore_ns = 0;
  uint64_t window_ns = 0;  // virtual duration of the op
  std::vector<uint64_t> latencies_ns;
  uint64_t client_ops = 0, client_failed = 0;
  uint64_t migrations = 0;  // per-VM migrations inside the op
  uint64_t slices = 0, preemptions = 0;
  size_t samples_lo = 0, samples_hi = 0;   // Sampler range, traced rounds only
  std::map<std::string, uint64_t> counts;  // traced rounds only
  std::map<std::string, uint64_t> attr;    // traced rounds only

  void fail(const std::string& msg) {
    if (ok) why = msg;
    ok = false;
  }
};

struct RoundResult {
  double setup_s = 0;
  std::vector<OpResult> ops;
  bool traced = false;
  std::map<std::string, uint64_t> setup_counts;  // traced rounds only
};

const std::vector<std::string> kCounters = {
    "net.msgs_sent",          "net.bytes_sent",
    "hv.rounds",              "hv.postcopy.pages_pulled",
    "sdk.control_cmds",       "sdk.aex",
    "sdk.cssa_pumps",         "sdk.keys_served",
    "pipeline.chunks_sealed", "delta.pages_sent",
    "delta.pages_deduped",    "postcopy.pages_applied",
    "postcopy.pull_requests", "store.counter.requests",
    "store.counter.advances", "quorum.prepare_acks",
    "quorum.commits",
};
// Counted over the set-up instead of per op: the owner serves only the
// enclaves' first provisioning, never a migration.
const std::vector<std::string> kSetupCounters = {"migration.owner_requests"};
const std::vector<std::string> kGauges = {"pool.page.high_water"};
const std::vector<std::string> kAttrPhases = {
    "precopy_rounds", "prepare_enclaves", "stop_and_copy",
    "postcopy_tail",  "restore_wait",     "other"};
const std::vector<std::string> kAttrDowntime = {"device_save", "final_copy",
                                                "device_restore"};
const std::vector<std::string> kAttrSpans = {
    "checkpoint",      "delta_dump",  "counter_roundtrip",
    "enclave_restore", "cssa_replay", "postcopy_pull"};

// Folds one migration's attribution ledger into `attr`, keeping the largest
// value per entry (the fleet's worst VM; a single leg has one ledger).
void fold_attr(const obs::AttributionLedger& led,
               std::map<std::string, uint64_t>& attr) {
  auto keep = [&](const std::string& k, uint64_t v) {
    attr[k] = std::max(attr[k], v);
  };
  for (const auto& n : kAttrPhases) keep("attr.phase." + n + "_ns", led.phase_ns(n));
  for (const auto& n : kAttrDowntime)
    keep("attr.downtime." + n + "_ns", led.downtime_phase_ns(n));
  for (const auto& n : kAttrSpans) keep("attr.span." + n + "_ns", led.span_total_ns(n));
}

// ---------------------------------------------------------------------------
// Closed-loop clients. Each client is an application thread of the guest
// process that owns its enclave, so the guest OS stops it with the VM. A
// client issues its next ecall only after the previous one returned, then
// thinks. Clients run for exactly one op: started before the op's run call,
// stopped right after it returns.

class Clients {
 public:
  using Body = std::function<bool(sim::ThreadCtx&, uint64_t client,
                                  std::mt19937_64& prng)>;  // false = failed

  void start(guestos::Process& proc, uint64_t client, uint64_t seed, uint64_t think_lo_ns, uint64_t think_hi_ns,
             Body body) {
    ++live_;
    tids_.push_back(proc.spawn_thread(
        "client" + std::to_string(client),
        [this, client, seed, think_lo_ns, think_hi_ns,
         body = std::move(body)](sim::ThreadCtx& c) {
          std::mt19937_64 prng(seed);
          while (!stop_) {
            uint64_t t0 = c.now();
            bool ok = body(c, client, prng);
            latencies_.push_back(c.now() - t0);
            ++ops_;
            if (!ok) {
              ++failed_;
              break;
            }
            c.sleep(think_lo_ns + prng() % (think_hi_ns - think_lo_ns + 1));
          }
          if (--live_ == 0) done_->set(c);
        }));
  }

  // Stops every client and waits for in-flight calls. An ecall still out
  // `grace_ns` of model time later has hung: its client is killed and the
  // call counts as failed. Returns false if any client had to be killed.
  bool stop_and_join(sim::ThreadCtx& ctx, uint64_t grace_ns) {
    stop_ = true;
    if (live_ == 0 || done_->wait_until(ctx, ctx.now() + grace_ns)) return true;
    for (sim::ThreadId t : tids_) ctx.executor().kill(t);
    ops_ += live_;
    failed_ += live_;
    return false;
  }

  void reset(sim::Executor& exec) {
    stop_ = false;
    live_ = 0;
    ops_ = failed_ = 0;
    latencies_.clear();
    tids_.clear();
    done_ = std::make_unique<sim::Event>(exec);
  }

  void collect(OpResult& op) {
    op.latencies_ns = std::move(latencies_);
    op.client_ops = ops_;
    op.client_failed = failed_;
    latencies_.clear();
  }

 private:
  bool stop_ = false;
  uint64_t live_ = 0;
  uint64_t ops_ = 0, failed_ = 0;
  std::vector<uint64_t> latencies_;
  std::vector<sim::ThreadId> tids_;
  std::unique_ptr<sim::Event> done_;
};

// Model time a client's in-flight ecall may take to return once the op's
// run call has returned.
constexpr uint64_t kClientGraceNs = 5'000'000'000;

Result<Bytes> traced_ecall(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                           uint64_t worker, uint64_t id, ByteSpan args) {
  SpanScope s("sdk.ecall", &ctx);
  return host.ecall(ctx, worker, id, args);
}

void provision(sim::ThreadCtx& ctx, hv::World& world,
               migration::EnclaveOwner& owner, sdk::EnclaveHost& host) {
  SpanScope s("migration.provision", &ctx);
  auto channel = world.make_channel();
  world.executor().spawn("owner", [&owner, ch = channel.get()](
                                      sim::ThreadCtx& c) {
    owner.serve_one(c, ch->b());
  });
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kProvision;
  cmd.channel = channel->a();
  sdk::ControlReply r = host.mailbox().post(ctx, cmd);
  MIG_CHECK_MSG(r.status.ok(), "provision: " << r.status.to_string());
}

void create_host(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
  SpanScope s("sdk.host_create", &ctx);
  Status st = host.create(ctx);
  MIG_CHECK_MSG(st.ok(), "create: " << st.to_string());
}

sdk::BuildOutput build_image(const sdk::BuildInput& in,
                             const crypto::SigKeyPair& signer,
                             hv::World& world, crypto::Drbg& rng) {
  SpanScope s("sdk.build_enclave_image", nullptr);
  return sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
}

// Uniform jitter of `base` by up to +-`permille`/1000, drawn from the seed.
uint64_t jitter(std::mt19937_64& prng, uint64_t base, uint64_t permille) {
  uint64_t span = base * permille / 1000;
  return base - span + prng() % (2 * span + 1);
}

// ---------------------------------------------------------------------------
// Workloads. Each builds its world in the constructor (outside the
// simulation) and start() (inside it); op() runs one timed op.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual hv::World& world() = 0;
  virtual void start(sim::ThreadCtx& ctx) = 0;
  virtual void op(sim::ThreadCtx& ctx, uint64_t leg, OpResult& out) = 0;
};

// Timing/accounting wrapper shared by every workload's run call.
template <typename Fn>
void timed(sim::ThreadCtx& ctx, OpResult& out, Fn&& run) {
  const sim::ExecutorStats before = ctx.executor().stats();
  uint64_t v0 = ctx.now();
  Sampler& prof = Sampler::instance();
  if (g_spans.on) {
    out.samples_lo = prof.taken();
    prof.start();
  }
  double c0 = cpu_s();
  out.wall_b = wall_s();
  run();
  out.wall_e = wall_s();
  out.host_s = out.wall_e - out.wall_b;
  out.cpu_s = cpu_s() - c0;
  if (g_spans.on) {
    prof.stop();
    out.samples_hi = prof.taken();
  }
  out.window_ns = ctx.now() - v0;
  out.slices = ctx.executor().stats().slices - before.slices;
  out.preemptions = ctx.executor().stats().preemptions - before.preemptions;
}

// ---- evacuate_quorum: control plane ----------------------------------------

constexpr uint64_t kEcallSpin = 1;  // args: u64 ns of in-enclave work

std::shared_ptr<sdk::EnclaveProgram> make_spin_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("tenant");
  prog->add_ecall(kEcallSpin, "spin", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    env.work(r.u64());
    return OkStatus();
  });
  return prog;
}

class EvacuateQuorum final : public Workload {
 public:
  static constexpr size_t kVms = 8;

  explicit EvacuateQuorum(uint64_t seed)
      : seed_(seed),
        world_(8, seed),
        a_(&world_.add_machine("host-a")),
        b_(&world_.add_machine("host-b")),
        rng_(to_bytes("evacuate-quorum-" + std::to_string(seed))),
        owner_(world_.ias(), rng_.fork(to_bytes("owner"))),
        quorum_(world_.executor(), world_.ias(), rng_.fork(to_bytes("qrm")),
                3) {
    std::mt19937_64 prng(seed);
    crypto::Drbg srng = rng_.fork(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    for (size_t i = 0; i < kVms; ++i) {
      hv::VmConfig c;
      c.name = "vm" + std::to_string(i);
      c.vcpus = 2;
      c.memory_mb = 2;
      c.used_fraction = 0.5;
      hv::DirtyModel dm;
      dm.pages_per_sec = jitter(prng, 180, 30);
      dm.working_set_pages = 120;
      vms_.push_back(std::make_unique<hv::Vm>(c, dm));
      guests_.push_back(std::make_unique<guestos::GuestOs>(*a_, *vms_.back()));
      procs_.push_back(&guests_.back()->create_process("tenant"));
      sdk::BuildInput in;
      in.program = make_spin_program();
      in.layout.num_workers = 2;
      in.layout.data_pages = 1;
      // Distinct MRENCLAVE per tenant; the seed shifts every tenant's size.
      in.layout.heap_pages = 1 + i + seed % 4;
      in.quorum_membership = quorum_.membership_blob();
      sdk::BuildOutput built = build_image(in, signer, world_, rng_);
      mrenclaves_.push_back(built.image.measure());
      owner_.enroll(built.image.measure(), built.owner);
      hosts_.push_back(std::make_unique<sdk::EnclaveHost>(
          *guests_.back(), *procs_.back(), std::move(built), world_.ias(),
          rng_.fork(to_bytes(c.name))));
    }
  }

  hv::World& world() override { return world_; }

  void start(sim::ThreadCtx& ctx) override {
    for (auto& h : hosts_) {
      create_host(ctx, *h);
      provision(ctx, world_, owner_, *h);
    }
  }

  void op(sim::ThreadCtx& ctx, uint64_t leg, OpResult& out) override {
    hv::Machine& src = leg % 2 == 0 ? *a_ : *b_;
    hv::Machine& dst = leg % 2 == 0 ? *b_ : *a_;
    std::vector<sgx::EnclaveId> old_eids;
    for (auto& h : hosts_) old_eids.push_back(h->instance()->eid);
    std::vector<std::vector<uint64_t>> before = replica_counters();

    fleet::EvacuationPlan plan;
    plan.max_concurrent = 4;
    plan.counter_service = &quorum_;
    fleet::FleetScheduler sched(world_, plan);
    for (size_t i = 0; i < kVms; ++i) {
      fleet::VmPlan vp;
      vp.name = vms_[i]->config().name;
      sched.add_vm(vp, *vms_[i], *guests_[i], src, dst, {hosts_[i].get()});
    }
    // One prober per tenant: a closed loop of short, variable-length ecalls,
    // so the drain's effect on the tenants' service shows in latency.
    clients_.reset(world_.executor());
    for (size_t i = 0; i < kVms; ++i) {
      sdk::EnclaveHost* host = hosts_[i].get();
      clients_.start(*procs_[i], i, seed_ * 131 + leg * 17 + i, 1'000'000,
                     3'000'000,
                     [host](sim::ThreadCtx& c, uint64_t, std::mt19937_64& p) {
                       Writer w;
                       w.u64(5'000 + p() % 10'000);
                       return traced_ecall(c, *host, 1, kEcallSpin, w.data())
                           .ok();
                     });
    }

    Result<fleet::EvacuationReport> rep =
        Error(ErrorCode::kInternal, "fleet did not run");
    timed(ctx, out, [&] {
      SpanScope s("fleet.run", &ctx);
      rep = sched.run(ctx);
    });
    bool joined = clients_.stop_and_join(ctx, kClientGraceNs);
    clients_.collect(out);

    // ---- correctness, outside the timed window ----
    out.migrations = kVms;
    if (!joined) {
      out.fail("a client ecall never returned after the evacuation");
      return;
    }
    if (!rep.ok()) {
      out.fail("fleet: " + rep.status().to_string());
      return;
    }
    if (rep->migrated != kVms || rep->quarantined != 0 || rep->retries != 0)
      out.fail("fleet: migrated=" + std::to_string(rep->migrated) +
               " quarantined=" + std::to_string(rep->quarantined) +
               " retries=" + std::to_string(rep->retries));
    out.total_ns = rep->total_ns;
    out.downtime_ns = rep->downtime_max_ns;
    for (const fleet::VmOutcome& v : rep->vms) {
      out.wire_bytes += v.report.transferred_bytes;
      out.restore_ns = std::max(out.restore_ns, v.report.enclave_restore_ns);
      if (v.report.attribution.present) fold_attr(v.report.attribution, out.attr);
    }
    for (size_t i = 0; i < kVms; ++i) {
      sdk::EnclaveHost& h = *hosts_[i];
      if (h.instance() == nullptr || h.instance()->machine != &dst) {
        out.fail("vm" + std::to_string(i) + ": enclave not on the destination");
        continue;
      }
      if (src.hw().enclave_exists(old_eids[i]))
        out.fail("vm" + std::to_string(i) + ": source instance still exists");
      Writer w;
      w.u64(1'000);
      if (!h.ecall(ctx, 0, kEcallSpin, w.data()).ok())
        out.fail("vm" + std::to_string(i) + ": no ecall on the destination");
    }
    std::vector<std::vector<uint64_t>> after = replica_counters();
    for (size_t r = 0; r < after.size(); ++r)
      for (size_t i = 0; i < kVms; ++i)
        if (after[r][i] != before[r][i] + 1)
          out.fail("replica " + std::to_string(r) + " vm" + std::to_string(i) +
                   ": counter " + std::to_string(before[r][i]) + " -> " +
                   std::to_string(after[r][i]));
  }

 private:
  std::vector<std::vector<uint64_t>> replica_counters() {
    std::vector<std::vector<uint64_t>> out;
    for (size_t r = 0; r < quorum_.num_replicas(); ++r) {
      out.emplace_back();
      for (const crypto::Digest& m : mrenclaves_)
        out.back().push_back(quorum_.replica(r).counter(m));
    }
    return out;
  }

  uint64_t seed_;
  hv::World world_;
  hv::Machine* a_;
  hv::Machine* b_;
  crypto::Drbg rng_;
  migration::EnclaveOwner owner_;
  quorum::QuorumCounterService quorum_;
  std::vector<std::unique_ptr<hv::Vm>> vms_;
  std::vector<std::unique_ptr<guestos::GuestOs>> guests_;
  std::vector<guestos::Process*> procs_;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts_;
  std::vector<crypto::Digest> mrenclaves_;
  Clients clients_;
};

// ---- hybrid_kv and kv_traffic: one guest with one KV enclave ----------------

struct KvShape {
  uint64_t state_pages;       // KV heap pages (4 KB), before seed jitter
  uint64_t dirty_pages_per_sec;
  bool hybrid;                // incremental + hybrid, AES-CBC-NI, counter
  uint64_t clients;
  uint64_t get_per_10;        // GETs out of every 10 client ops
  uint64_t think_lo_ns, think_hi_ns;
};

class KvMigration final : public Workload {
 public:
  KvMigration(uint64_t seed, KvShape shape)
      : seed_(seed),
        shape_(shape),
        world_(4, seed),
        a_(&world_.add_machine("host-a")),
        b_(&world_.add_machine("host-b")),
        vm_(hv::VmConfig{.name = "guest", .memory_mb = 256},
            hv::DirtyModel{shape.dirty_pages_per_sec, 40'000}),
        guest_(*a_, vm_),
        proc_(&guest_.create_process("memcached")),
        rng_(to_bytes("kv-" + std::to_string(seed))),
        owner_(world_.ias(), rng_.fork(to_bytes("owner"))),
        counters_(world_.ias(), rng_.fork(to_bytes("ctr"))) {
    std::mt19937_64 prng(seed);
    crypto::Drbg srng = rng_.fork(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    sdk::BuildInput in;
    in.program = apps::make_kv_program();
    in.layout = apps::kv_layout(0, 4);
    // The seed sizes the store within +-1% of its nominal state.
    in.layout.heap_pages = jitter(prng, shape.state_pages, 10);
    if (shape.hybrid) in.counter_service_pk = counters_.public_key();
    sdk::BuildOutput built = build_image(in, signer, world_, rng_);
    owner_.enroll(built.image.measure(), built.owner);
    host_ = std::make_unique<sdk::EnclaveHost>(guest_, *proc_, std::move(built),
                                               world_.ias(),
                                               rng_.fork(to_bytes("host")));
    items_ = in.layout.heap_pages * sgx::kPageSize / apps::kKvSlotBytes;
    lens_.assign(items_, kFillLen);
  }

  hv::World& world() override { return world_; }

  void start(sim::ThreadCtx& ctx) override {
    create_host(ctx, *host_);
    provision(ctx, world_, owner_, *host_);
    SpanScope s("kv.fill", &ctx);
    Writer fill;
    fill.u64(items_);
    fill.u64(kFillLen);
    auto r = host_->ecall(ctx, 0, apps::kKvEcallFill, fill.data());
    MIG_CHECK_MSG(r.ok(), "fill: " << r.status().to_string());
  }

  void op(sim::ThreadCtx& ctx, uint64_t leg, OpResult& out) override {
    hv::Machine& src = leg % 2 == 0 ? *a_ : *b_;
    hv::Machine& dst = leg % 2 == 0 ? *b_ : *a_;
    sgx::EnclaveId old_eid = host_->instance()->eid;

    migration::VmMigrationSession::Options opts;
    if (shape_.hybrid) {
      opts.incremental = true;
      opts.hybrid = true;
      opts.cipher = crypto::CipherAlg::kAes128CbcNi;
      opts.counter_service = &counters_;
    }
    migration::VmMigrationSession session(world_, vm_, guest_, src, dst, opts);
    session.manage(*host_);

    clients_.reset(world_.executor());
    written_.clear();
    for (uint64_t c = 0; c < shape_.clients; ++c)
      clients_.start(*proc_, c, seed_ * 977 + leg * 31 + c,
                     shape_.think_lo_ns, shape_.think_hi_ns,
                     [this](sim::ThreadCtx& cc, uint64_t client,
                            std::mt19937_64& p) {
                       return client_op(cc, client, p);
                     });

    Result<hv::MigrationReport> rep = Error(ErrorCode::kInternal, "not run");
    timed(ctx, out, [&] {
      SpanScope s("migration.session_run", &ctx);
      rep = session.run(ctx);
    });
    bool joined = clients_.stop_and_join(ctx, kClientGraceNs);
    clients_.collect(out);

    // ---- correctness, outside the timed window ----
    out.migrations = 1;
    if (!joined) {
      out.fail("a client ecall never returned after the migration");
      return;
    }
    if (!rep.ok() || !rep->success) {
      out.fail("session: " +
               (rep.ok() ? std::string("unsuccessful") : rep.status().to_string()));
      return;
    }
    out.total_ns = rep->total_ns;
    out.downtime_ns = rep->downtime_ns;
    out.wire_bytes = rep->transferred_bytes;
    out.restore_ns = rep->enclave_restore_ns;
    if (rep->attribution.present) fold_attr(rep->attribution, out.attr);
    if (host_->instance() == nullptr || host_->instance()->machine != &dst) {
      out.fail("enclave not on the destination");
      return;
    }
    if (src.hw().enclave_exists(old_eid))
      out.fail("source instance still exists");
    // No acknowledged write lost or applied twice: the store's item count is
    // the fill plus every acked SET so far.
    auto stats = host_->ecall(ctx, 0, apps::kKvEcallStats, {});
    if (!stats.ok()) {
      out.fail("stats ecall on the destination: " + stats.status().to_string());
      return;
    }
    Reader rd(*stats);
    uint64_t items = rd.u64();
    if (items != items_ + acked_sets_)
      out.fail("kv items " + std::to_string(items) + " != fill " +
               std::to_string(items_) + " + acked sets " +
               std::to_string(acked_sets_));
    // Every value written during the leg reads back intact on the target.
    for (uint64_t key : written_) {
      if (!check_get(ctx, 0, key)) {
        out.fail("key " + std::to_string(key) + " reads back wrong");
        break;
      }
    }
  }

 private:
  bool check_get(sim::ThreadCtx& ctx, uint64_t worker, uint64_t key) {
    Writer w;
    w.u64(key);
    auto r = traced_ecall(ctx, *host_, worker, apps::kKvEcallGet, w.data());
    if (!r.ok()) return false;
    Reader rd(*r);
    return rd.u64() == kv_checksum(key, lens_[key]);
  }

  // One client op. Client c owns the keys congruent to c, so no two clients
  // touch one slot and every GET has one expected value.
  bool client_op(sim::ThreadCtx& ctx, uint64_t client, std::mt19937_64& p) {
    uint64_t n = shape_.clients;
    uint64_t key = client + n * (p() % (items_ / n));
    if (p() % 10 < shape_.get_per_10) return check_get(ctx, client, key);
    uint64_t len = 256 + p() % 761;
    Writer w;
    w.u64(key);
    w.u64(len);
    if (!traced_ecall(ctx, *host_, client, apps::kKvEcallSet, w.data()).ok())
      return false;
    lens_[key] = len;
    ++acked_sets_;
    if (written_.size() < 256) written_.insert(key);
    return true;
  }

  uint64_t seed_;
  KvShape shape_;
  hv::World world_;
  hv::Machine* a_;
  hv::Machine* b_;
  hv::Vm vm_;
  guestos::GuestOs guest_;
  guestos::Process* proc_;
  crypto::Drbg rng_;
  migration::EnclaveOwner owner_;
  store::CounterService counters_;
  std::unique_ptr<sdk::EnclaveHost> host_;
  uint64_t items_ = 0;
  std::vector<uint64_t> lens_;  // current value length per key
  uint64_t acked_sets_ = 0;
  std::set<uint64_t> written_;
  Clients clients_;
};

struct WorkloadSpec {
  uint64_t legs;  // ops per round
  CalKernel cal;  // calibration kernel shaped like the workload's hot loop
  std::function<std::unique_ptr<Workload>(uint64_t seed)> make;
};

const std::map<std::string, WorkloadSpec>& workloads() {
  static const std::map<std::string, WorkloadSpec> specs = {
      {"evacuate_quorum",
       {3, kCalBignum, [](uint64_t seed) -> std::unique_ptr<Workload> {
          return std::make_unique<EvacuateQuorum>(seed);
        }}},
      {"hybrid_kv",
       {1, kCalBytes, [](uint64_t seed) -> std::unique_ptr<Workload> {
          // 8 MB of KV state; 200k dirty pages/s defeats pre-copy; one
          // writer SETs every 2 ms.
          return std::make_unique<KvMigration>(
              seed, KvShape{8 * 256, 200'000, true, 1, 0, 1'900'000,
                            2'100'000});
        }}},
      // OS-thread hand-offs dominate kv_traffic, which no user-space kernel
      // mirrors; its *_ref_s values are only roughly machine-independent.
      {"kv_traffic",
       {2, kCalBignum, [](uint64_t seed) -> std::unique_ptr<Workload> {
          // 2 MB of KV state, default pre-copy; four clients, GET:SET 9:1,
          // ~200 us think.
          return std::make_unique<KvMigration>(
              seed, KvShape{2 * 256, 1'600, false, 4, 9, 150'000, 250'000});
        }}},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// One round: fresh set-up, then the fixed op sequence.

RoundResult run_round(const WorkloadSpec& spec, uint64_t seed, bool traced,
                      double t_start) {
  RoundResult round;
  round.traced = traced;
  obs::trace().set_enabled(traced);
  obs::metrics().set_enabled(traced);
  obs::trace().clear();
  obs::metrics().clear();
  g_spans.on = traced;
  g_speed.pause(traced);

  std::unique_ptr<Workload> w = spec.make(seed);
  w->world().executor().spawn("bench", [&](sim::ThreadCtx& ctx) {
    w->start(ctx);
    round.setup_s = wall_s() - t_start;
    if (traced)
      for (const auto& n : kSetupCounters)
        round.setup_counts[n] = obs::metrics().counter(n);
    for (uint64_t leg = 0; leg < spec.legs; ++leg) {
      obs::trace().clear();
      obs::metrics().clear();
      OpResult op;
      op.leg = leg;
      w->op(ctx, leg, op);
      if (traced) {
        for (const auto& n : kCounters) op.counts[n] = obs::metrics().counter(n);
        for (const auto& n : kGauges) op.counts[n] = obs::metrics().gauge(n);
      }
      SpeedProbe::Window win = g_speed.window(op.wall_b, op.wall_e);
      std::fprintf(stderr,
                   "perfbench: leg %llu host %.3f s cpu %.3f s kernel %.0f us "
                   "ref %.3f s%s\n",
                   static_cast<unsigned long long>(leg), op.host_s, op.cpu_s,
                   win.kernel_us, (op.host_s - win.cpu_s) * win.speed,
                   traced ? " (traced)" : "");
      bool ok = op.ok;
      round.ops.push_back(std::move(op));
      if (!ok) break;  // the enclave's state is unknown; end the round
    }
  });
  MIG_CHECK_MSG(w->world().executor().run(),
                "simulation hung:\n" << w->world().executor().dump_state());
  w.reset();
  g_spans.on = false;
  g_speed.pause(false);
  obs::trace().set_enabled(false);
  obs::metrics().set_enabled(false);
  obs::trace().clear();
  return round;
}

bool round_ok(const RoundResult& r) {
  return std::all_of(r.ops.begin(), r.ops.end(),
                     [](const OpResult& o) { return o.ok && !o.client_failed; });
}

// Deterministic digest of a round's model-clock values (and, when traced,
// its counts). Identical inputs must give identical fingerprints.
std::string model_fingerprint(const RoundResult& r, bool with_counts) {
  std::string s;
  if (with_counts)
    for (const auto& [k, v] : r.setup_counts) s += k + "=" + std::to_string(v) + ";";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const OpResult& o = r.ops[i];
    s += "op" + std::to_string(i) + ":total=" + std::to_string(o.total_ns) +
         ",downtime=" + std::to_string(o.downtime_ns) +
         ",wire=" + std::to_string(o.wire_bytes) +
         ",restore=" + std::to_string(o.restore_ns) +
         ",window=" + std::to_string(o.window_ns) +
         ",client_ops=" + std::to_string(o.client_ops) +
         ",p50=" + std::to_string(percentile(o.latencies_ns, 0.5)) +
         ",p99=" + std::to_string(percentile(o.latencies_ns, 0.99));
    if (with_counts) {
      s += ",slices=" + std::to_string(o.slices) +
           ",preemptions=" + std::to_string(o.preemptions);
      for (const auto& [k, v] : o.counts) s += "," + k + "=" + std::to_string(v);
      for (const auto& [k, v] : o.attr) s += "," + k + "=" + std::to_string(v);
    }
    s += ";";
  }
  return s;
}

// ---------------------------------------------------------------------------
// Layer probes: direct calls to the public primitives, in the workloads'
// shapes (Oakley-2 group, 4 KB AES-CBC pages, 64 KB RC4 chunks). Each is the
// median of `reps` samples after one warm-up sample.

template <typename Fn>
double probe(int reps, Fn&& sample) {
  sample();
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(sample());
  return median(v);
}

template <typename Fn>
double time_s(Fn&& fn) {
  double t0 = wall_s();
  fn();
  return wall_s() - t0;
}

// Host microseconds per unit of executor work on a one-CPU executor;
// `setup(exec, iters)` spawns the sim threads that do `iters` units.
double sim_probe_us(uint64_t iters,
                    const std::function<void(sim::Executor&, uint64_t)>& setup) {
  sim::Executor exec(1);
  setup(exec, iters);
  double t = time_s([&] { MIG_CHECK(exec.run()); });
  return t * 1e6 / static_cast<double>(iters);
}

std::map<std::string, double> layer_probes() {
  std::map<std::string, double> m;
  crypto::Drbg rng(to_bytes("perfbench-probe"));
  const crypto::DhGroup& g = crypto::DhGroup::oakley2();
  crypto::DhKeyPair a = crypto::dh_generate(rng);
  crypto::DhKeyPair b = crypto::dh_generate(rng);
  crypto::SigKeyPair sk = crypto::sig_keygen(rng);
  Bytes msg = rng.generate(64);
  Bytes sig = crypto::sig_sign(sk.sk, msg, rng);
  volatile bool sink = false;
  const int kReps = 7;
  m["crypto.modexp_ms"] = 1e3 * probe(kReps, [&] {
    return time_s([&] { sink = g.g.modexp(a.priv, g.p).is_zero(); });
  });
  m["crypto.dh_generate_ms"] = 1e3 * probe(kReps, [&] {
    return time_s([&] { sink = crypto::dh_generate(rng).pub.is_zero(); });
  });
  m["crypto.dh_shared_ms"] = 1e3 * probe(kReps, [&] {
    return time_s([&] { sink = crypto::dh_shared(a.priv, b.pub).ok(); });
  });
  m["crypto.sig_sign_ms"] = 1e3 * probe(kReps, [&] {
    return time_s([&] { sink = crypto::sig_sign(sk.sk, msg, rng).empty(); });
  });
  m["crypto.sig_verify_ms"] = 1e3 * probe(kReps, [&] {
    return time_s([&] { sink = crypto::sig_verify(sk.pk, msg, sig); });
  });

  // Bulk ciphers: 64 pages / 64 KB chunks per sample.
  constexpr size_t kPage = 4096, kPages = 64, kChunk = 64 * 1024;
  Bytes key = rng.generate(32);
  std::vector<Bytes> pages;
  for (size_t i = 0; i < kPages; ++i) pages.push_back(rng.generate(kPage));
  std::vector<Bytes> sealed;
  for (const Bytes& p : pages)
    sealed.push_back(crypto::seal(crypto::CipherAlg::kAes128CbcNi, key, p));
  const double page_bytes = static_cast<double>(kPage * kPages);
  m["crypto.aes_cbc_seal_ns_per_byte"] = 1e9 / page_bytes * probe(kReps, [&] {
    return time_s([&] {
      for (const Bytes& p : pages)
        sink = crypto::seal(crypto::CipherAlg::kAes128CbcNi, key, p).empty();
    });
  });
  m["crypto.aes_cbc_open_ns_per_byte"] = 1e9 / page_bytes * probe(kReps, [&] {
    return time_s([&] {
      for (const Bytes& s : sealed) sink = crypto::open(key, s).ok();
    });
  });
  Bytes chunk = rng.generate(kChunk);
  m["crypto.sha256_ns_per_byte"] = 1e9 / kChunk * probe(kReps, [&] {
    return time_s([&] { sink = crypto::Sha256::hash(chunk)[0] == 0; });
  });
  m["crypto.rc4_ns_per_byte"] = 1e9 / kChunk * probe(kReps, [&] {
    Bytes buf = chunk;
    return time_s([&] { crypto::Rc4(key).xor_stream(buf); });
  });
  constexpr size_t kBatch = 8;
  std::vector<Bytes> chunks(kBatch, chunk);
  std::vector<ByteSpan> spans(chunks.begin(), chunks.end());
  m["crypto.seal_batch_ns_per_byte"] =
      1e9 / static_cast<double>(kChunk * kBatch) * probe(kReps, [&] {
        crypto::ChunkSealer sealer(crypto::CipherAlg::kRc4, key);
        return time_s([&] { sink = sealer.seal_batch(0, spans).ok(); });
      });

  // Executor: two threads alternating work(); Event set -> wake; 4 KB
  // Channel messages. Per hand-off / wake / message.
  constexpr uint64_t kIters = 2'000;
  m["sim.handoff_us"] = probe(5, [&] {
    return sim_probe_us(2 * kIters, [](sim::Executor& e, uint64_t n) {
      for (int t = 0; t < 2; ++t)
        e.spawn("spin" + std::to_string(t), [n](sim::ThreadCtx& c) {
          for (uint64_t i = 0; i < n / 2; ++i) c.work(1'000);
        });
    });
  });
  m["sim.event_wake_us"] = probe(5, [&] {
    auto ping = std::make_shared<std::vector<std::unique_ptr<sim::Event>>>();
    return sim_probe_us(2 * kIters, [ping](sim::Executor& e, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i)
        ping->push_back(std::make_unique<sim::Event>(e));
      // Thread t waits on events of parity t and sets the next one.
      for (uint64_t t = 0; t < 2; ++t)
        e.spawn("ping" + std::to_string(t), [ping, n, t](sim::ThreadCtx& c) {
          for (uint64_t i = t; i < n; i += 2) {
            if (i > 0) (*ping)[i - 1]->wait(c);
            (*ping)[i]->set(c);
          }
        });
    });
  });
  m["sim.pipe_msg_us"] = probe(5, [&] {
    auto ch = std::make_shared<std::unique_ptr<sim::Channel>>();
    return sim_probe_us(kIters, [ch](sim::Executor& e, uint64_t n) {
      *ch = std::make_unique<sim::Channel>(e, sim::default_cost_model());
      sim::Channel* c = ch->get();
      e.spawn("tx", [c, n](sim::ThreadCtx& x) {
        for (uint64_t i = 0; i < n; ++i) c->a().send(x, Bytes(4096, 0x5a));
      });
      e.spawn("rx", [c, n](sim::ThreadCtx& x) {
        for (uint64_t i = 0; i < n; ++i) (void)c->b().recv(x);
      });
    });
  });
  (void)sink;
  return m;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      std::exit(2);
    }
  }
  if (workloads().count(a.workload) == 0) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    std::exit(2);
  }
  return a;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_process = wall_s();
  Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = workloads().at(args.workload);

  std::map<std::string, double> probes;
  if (args.trace) probes = layer_probes();
  g_speed.start(spec.cal);

  // Untraced rounds until the time budget is spent (at least two, so every
  // run checks its own determinism). A traced run adds one traced round
  // after a single untraced one, which is the baseline for the tracing
  // overhead.
  std::vector<RoundResult> rounds;
  double round_start = t_process;
  double longest = 0;
  // Peak memory through the first round: later rounds add only allocator
  // and thread-stack noise.
  double first_round_rss_mb = 0;
  const size_t min_rounds = args.trace ? 1 : 2;
  while (rounds.size() < min_rounds ||
         (!args.trace &&
          wall_s() - t_process + longest <= args.seconds)) {
    rounds.push_back(run_round(spec, args.seed, false, round_start));
    if (rounds.size() == 1) first_round_rss_mb = peak_rss_mb();
    if (!round_ok(rounds.back())) break;
    double now = wall_s();
    longest = std::max(longest, now - round_start);
    round_start = now;
  }
  if (args.trace && round_ok(rounds.back()))
    rounds.push_back(run_round(spec, args.seed, true, wall_s()));
  g_speed.stop();

  // ---- correctness and determinism ----
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  for (const RoundResult& r : rounds)
    for (const OpResult& o : r.ops) {
      attempted += 1 + o.migrations + o.client_ops;
      failed += o.client_failed + (o.ok ? 0 : 1 + o.migrations);
      if (!o.ok) problems.push_back("leg " + std::to_string(o.leg) + ": " + o.why);
      else if (o.client_failed)
        problems.push_back("leg " + std::to_string(o.leg) + ": a client ecall failed");
    }
  const std::string model_fp = model_fingerprint(rounds.front(), false);
  for (const RoundResult& r : rounds)
    if (model_fingerprint(r, false) != model_fp)
      problems.push_back("rounds at one seed disagree on model values");

  // ---- metrics ----
  std::vector<double> host, cpu, host_ref, cpu_ref, kernel_us, setup, total,
      down, wire, restore, p50, p99, rate;
  const RoundResult& shown = args.trace ? rounds.back() : rounds.front();
  for (const RoundResult& r : rounds) {
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    for (const OpResult& o : r.ops) {
      // Net of the probe's own slices, then rescaled to the reference CPU.
      SpeedProbe::Window win = g_speed.window(o.wall_b, o.wall_e);
      if (win.speed == 0) {
        problems.push_back("leg " + std::to_string(o.leg) +
                           ": no CPU speed sample inside the op");
        continue;
      }
      host.push_back(o.host_s - win.cpu_s);
      cpu.push_back(o.cpu_s - win.cpu_s);
      host_ref.push_back(host.back() * win.speed);
      cpu_ref.push_back(cpu.back() * win.speed);
      kernel_us.push_back(win.kernel_us);
    }
  }
  for (const OpResult& o : shown.ops) {
    total.push_back(o.total_ns / 1e6);
    down.push_back(o.downtime_ns / 1e6);
    wire.push_back(o.wire_bytes / 1e6);
    restore.push_back(o.restore_ns / 1e6);
    p50.push_back(percentile(o.latencies_ns, 0.5) / 1e3);
    p99.push_back(percentile(o.latencies_ns, 0.99) / 1e3);
    rate.push_back(o.window_ns ? o.client_ops * 1e9 / o.window_ns : 0);
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  auto put = [&](const std::string& k, double v, const std::string& unit) {
    out.push_back({k, {v, unit}});
  };
  if (!args.trace) {
    put("host_ref_s", median(host_ref), "s");
    put("host_cpu_ref_s", median(cpu_ref), "s");
    put("setup_s", median(setup), "s");
    put("peak_rss_mb", first_round_rss_mb, "MB");
    put("model_total_ms", median(total), "model_ms");
    put("model_downtime_ms", median(down), "model_ms");
    put("model_wire_mb", median(wire), "MB");
    put("model_restore_ms", median(restore), "model_ms");
    put("model_op_p50_us", median(p50), "model_us");
    put("model_op_p99_us", median(p99), "model_us");
    put("model_ops_per_s", median(rate), "1/model_s");
  } else {
    for (const auto& [k, v] : probes) {
      std::string unit = k.find("ns_per_byte") != std::string::npos ? "ns/B"
                         : k.ends_with("_ms")                        ? "ms"
                                                                     : "us";
      put(k, v, unit);
    }
    const RoundResult& t = rounds.back();
    std::vector<double> slices, pre, us_per_slice, traced_host;
    std::map<std::string, std::vector<double>> counts, attr;
    for (const OpResult& o : t.ops) {
      slices.push_back(static_cast<double>(o.slices));
      pre.push_back(static_cast<double>(o.preemptions));
      us_per_slice.push_back(o.slices ? o.host_s * 1e6 / o.slices : 0);
      traced_host.push_back(o.host_s);
      for (const auto& [k, v] : o.counts) counts[k].push_back(static_cast<double>(v));
      for (const auto& n : kAttrPhases) attr["attr.phase." + n + "_ns"];
      for (const auto& n : kAttrDowntime) attr["attr.downtime." + n + "_ns"];
      for (const auto& n : kAttrSpans) attr["attr.span." + n + "_ns"];
      for (auto& [k, v] : attr) {
        auto it = o.attr.find(k);
        v.push_back(it == o.attr.end() ? 0.0 : static_cast<double>(it->second));
      }
    }
    put("host_s", median(host), "s");
    put("host_cpu_s", median(cpu), "s");
    put("cal.kernel_us", median(kernel_us), "us");
    put("sim.slices", median(slices), "count");
    put("sim.preemptions", median(pre), "count");
    put("sim.host_us_per_slice", median(us_per_slice), "us");
    for (const auto& [k, v] : counts) put(k, median(v), "count");
    for (const auto& [k, v] : attr) put(k, median(v), "model_ns");
    for (const auto& [k, v] : t.setup_counts) put(k, static_cast<double>(v), "count");
    // Each primitive's share of an op's CPU samples.
    const SymbolMap symbols;
    std::vector<std::vector<double>> shares(kNumPrims);
    for (const OpResult& o : t.ops) {
      std::array<double, kNumPrims> n{};
      for (size_t i = o.samples_lo; i < o.samples_hi; ++i)
        n[symbols.at(Sampler::instance().pc(i))] += 1;
      double all = static_cast<double>(o.samples_hi - o.samples_lo);
      for (int p = kBigNum; p < kNumPrims; ++p)
        shares[p].push_back(all > 0 ? n[p] / all : 0);
    }
    for (int p = kBigNum; p < kNumPrims; ++p)
      put(kPrimMetric[p], median(shares[p]), "frac");
    // Benchmark-side spans: per set-up for the set-up calls, per op for the
    // rest.
    const std::vector<std::string> setup_spans = {
        "sdk.build_enclave_image", "sdk.host_create", "migration.provision",
        "kv.fill"};
    const std::vector<std::string> op_spans = {"migration.session_run",
                                               "fleet.run", "sdk.ecall"};
    std::map<std::string, std::pair<double, double>> sums;
    for (const SpanRec& s : g_spans.recs) {
      sums[s.name].first += (s.host_e - s.host_b) * 1e3;
      sums[s.name].second += (s.model_e - s.model_b) / 1e6;
    }
    double n_ops = static_cast<double>(t.ops.size());
    for (const auto& names : {setup_spans, op_spans}) {
      double per = &names == &setup_spans ? 1.0 : n_ops;
      for (const auto& n : names) {
        put("span." + n + ".host_ms", sums[n].first / per, "ms");
        put("span." + n + ".model_ms", sums[n].second / per, "model_ms");
      }
    }
    double untraced = median(host);
    put("obs.trace_overhead_frac",
        untraced > 0 ? median(traced_host) / untraced - 1 : 0, "frac");
    std::string path = args.out + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    g_spans.write(path, t_process);
  }

  // Result line for run.py: the metrics plus the determinism fingerprints.
  std::string js = "{\"correct\":" +
                   std::string(problems.empty() ? "true" : "false") +
                   ",\"attempted\":" + std::to_string(attempted) +
                   ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < out.size(); ++i)
    js += (i ? "," : "") + std::string("\"") + out[i].first +
          "\":{\"value\":" + num(out[i].second.first) + ",\"unit\":\"" +
          out[i].second.second + "\"}";
  js += "},\"model_fingerprint\":\"" + obs::json_escape(model_fp) + "\"";
  js += ",\"count_fingerprint\":\"" +
        obs::json_escape(args.trace ? model_fingerprint(rounds.back(), true)
                                    : std::string()) +
        "\"";
  js += ",\"rounds\":" + std::to_string(rounds.size());
  js += ",\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i)
    js += (i ? ",\"" : "\"") + obs::json_escape(problems[i]) + "\"";
  js += "]}";
  std::printf("%s\n", js.c_str());
  return problems.empty() ? 0 : 1;
}
