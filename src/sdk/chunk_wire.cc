#include "sdk/chunk_wire.h"

#include <string>

#include "util/check.h"
#include "util/serde.h"

namespace mig::sdk {

namespace {

constexpr char kBlobMagic[4] = {'M', 'G', 'C', '2'};
constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
constexpr char kEndMagic[4] = {'C', 'E', 'N', 'D'};
constexpr char kSnapMagic[4] = {'M', 'G', 'S', '1'};
constexpr char kDeltaSegMagic[4] = {'M', 'G', 'D', '3'};
constexpr char kDeltaBoxMagic[4] = {'M', 'G', 'V', '3'};
constexpr char kPageMagic[4] = {'M', 'G', 'P', '4'};
constexpr char kQuorumMagic[4] = {'M', 'G', 'Q', '1'};
constexpr char kMembershipMagic[4] = {'Q', 'M', 'B', '1'};

bool has_magic(ByteSpan b, const char (&magic)[4]) {
  if (b.size() < 4) return false;
  for (int i = 0; i < 4; ++i)
    if (b[i] != static_cast<uint8_t>(magic[i])) return false;
  return true;
}

void put_magic(Writer& w, const char (&magic)[4]) {
  for (char c : magic) w.u8(static_cast<uint8_t>(c));
}

void put_magic(util::ByteChain& c, const char (&magic)[4]) {
  for (char m : magic) c.u8(static_cast<uint8_t>(m));
}

bool valid_alg(uint8_t alg) {
  return alg >= static_cast<uint8_t>(crypto::CipherAlg::kRc4) &&
         alg <= static_cast<uint8_t>(crypto::CipherAlg::kChaCha20);
}

void put_header(Writer& w, const ChunkedHeader& h) {
  w.u8(static_cast<uint8_t>(h.alg));
  w.u64(h.chunk_bytes);
  w.u64(h.chunk_count);
  w.u64(h.total_bytes);
}

void put_header(util::ByteChain& c, const ChunkedHeader& h) {
  c.u8(static_cast<uint8_t>(h.alg));
  c.u64(h.chunk_bytes);
  c.u64(h.chunk_count);
  c.u64(h.total_bytes);
}

// Reads the header fields (after the magic) with sanity limits; flips the
// reader's ok flag via the caller's finish()/ok() checks on malformed input.
Result<ChunkedHeader> read_header(Reader& r) {
  ChunkedHeader h;
  uint8_t alg = r.u8();
  h.chunk_bytes = r.u64();
  h.chunk_count = r.u64();
  h.total_bytes = r.u64();
  if (!r.ok() || !valid_alg(alg))
    return Error(ErrorCode::kIntegrityViolation, "chunked header malformed");
  h.alg = static_cast<crypto::CipherAlg>(alg);
  if (h.chunk_count == 0 || h.chunk_count > kMaxWireChunks)
    return Error(ErrorCode::kIntegrityViolation,
                 "chunked header: absurd chunk count");
  return h;
}

}  // namespace

bool is_chunked_checkpoint(ByteSpan blob) { return has_magic(blob, kBlobMagic); }

void chain_chunked_checkpoint(util::ByteChain& c, const ChunkedHeader& header,
                              std::span<const ByteSpan> sealed_chunks,
                              ByteSpan root) {
  MIG_CHECK(header.chunk_count == sealed_chunks.size());
  MIG_CHECK(root.size() == 32);
  put_magic(c, kBlobMagic);
  put_header(c, header);
  for (uint64_t i = 0; i < sealed_chunks.size(); ++i) {
    c.u64(i);
    c.bytes(sealed_chunks[i]);
  }
  c.raw_inline(root);
}

Bytes encode_chunked_checkpoint(const ChunkedHeader& header,
                                const std::vector<Bytes>& sealed_chunks,
                                ByteSpan root) {
  std::vector<ByteSpan> spans(sealed_chunks.begin(), sealed_chunks.end());
  util::ByteChain c;
  chain_chunked_checkpoint(c, header, spans, root);
  return c.flatten();
}

Result<ParsedChunked> parse_chunked_checkpoint(ByteSpan blob) {
  if (!is_chunked_checkpoint(blob))
    return Error(ErrorCode::kIntegrityViolation, "not a chunked checkpoint");
  Reader r(blob.subspan(4));
  ParsedChunked out;
  MIG_ASSIGN_OR_RETURN(out.header, read_header(r));
  out.sealed_chunks.reserve(out.header.chunk_count);
  for (uint64_t i = 0; i < out.header.chunk_count; ++i) {
    uint64_t index = r.u64();
    Bytes sealed = r.bytes();
    if (!r.ok() || index != i)
      return Error(ErrorCode::kIntegrityViolation,
                   "chunked checkpoint: bad chunk record " + std::to_string(i));
    out.sealed_chunks.push_back(std::move(sealed));
  }
  out.root = r.raw(32);
  MIG_RETURN_IF_ERROR(r.finish());
  return out;
}

void chain_chunk_frame(util::ByteChain& c, uint64_t index, ByteSpan sealed) {
  put_magic(c, kChunkMagic);
  c.u64(index);
  c.bytes(sealed);
}

Bytes encode_chunk_frame(uint64_t index, ByteSpan sealed) {
  util::ByteChain c;
  chain_chunk_frame(c, index, sealed);
  return c.flatten();
}

void chain_end_frame(util::ByteChain& c, const ChunkedHeader& header,
                     ByteSpan root) {
  MIG_CHECK(root.size() == 32);
  put_magic(c, kEndMagic);
  put_header(c, header);
  c.raw_inline(root);
}

Bytes encode_end_frame(const ChunkedHeader& header, ByteSpan root) {
  util::ByteChain c;
  chain_end_frame(c, header, root);
  return c.flatten();
}

Result<Bytes> receive_chunked_checkpoint(sim::ThreadCtx& ctx,
                                         sim::Channel::End end,
                                         uint64_t timeout_ns) {
  std::vector<Bytes> chunks;
  for (;;) {
    std::optional<Bytes> frame = end.recv_timeout(ctx, timeout_ns);
    if (!frame)
      return Error(ErrorCode::kDeadlineExceeded,
                   "chunk stream went quiet after " +
                       std::to_string(chunks.size()) + " chunk(s)");
    if (has_magic(*frame, kChunkMagic)) {
      Reader r(ByteSpan(*frame).subspan(4));
      uint64_t index = r.u64();
      Bytes sealed = r.bytes();
      if (!r.finish().ok())
        return Error(ErrorCode::kIntegrityViolation,
                     "chunk stream: malformed frame at chunk index " +
                         std::to_string(chunks.size()));
      if (chunks.size() >= kMaxWireChunks)
        return Error(ErrorCode::kIntegrityViolation,
                     "chunk stream: more than " +
                         std::to_string(kMaxWireChunks) + " chunks");
      if (index != chunks.size())
        return Error(ErrorCode::kIntegrityViolation,
                     "chunk stream: expected chunk index " +
                         std::to_string(chunks.size()) + ", frame carries " +
                         std::to_string(index));
      chunks.push_back(std::move(sealed));
      continue;
    }
    if (has_magic(*frame, kEndMagic)) {
      Reader r(ByteSpan(*frame).subspan(4));
      MIG_ASSIGN_OR_RETURN(ChunkedHeader h, read_header(r));
      Bytes root = r.raw(32);
      MIG_RETURN_IF_ERROR(r.finish());
      if (h.chunk_count != chunks.size())
        return Error(ErrorCode::kIntegrityViolation,
                     "chunk stream: end frame announces " +
                         std::to_string(h.chunk_count) + " chunks, saw " +
                         std::to_string(chunks.size()));
      return encode_chunked_checkpoint(h, chunks, root);
    }
    return Error(ErrorCode::kIntegrityViolation,
                 "chunk stream: unknown frame at chunk index " +
                     std::to_string(chunks.size()));
  }
}

bool is_snapshot_envelope(ByteSpan blob) { return has_magic(blob, kSnapMagic); }

Bytes encode_snapshot_envelope(const SnapshotEnvelope& env) {
  MIG_CHECK(env.mrenclave.size() == 32);
  MIG_CHECK(env.counter != 0);
  Writer w;
  put_magic(w, kSnapMagic);
  w.raw(env.mrenclave);
  w.u64(env.counter);
  w.bytes(env.inner);
  return w.take();
}

Result<SnapshotEnvelope> parse_snapshot_envelope(ByteSpan blob) {
  if (!is_snapshot_envelope(blob))
    return Error(ErrorCode::kIntegrityViolation, "not a snapshot envelope");
  Reader r(blob.subspan(4));
  SnapshotEnvelope env;
  env.mrenclave = r.raw(32);
  env.counter = r.u64();
  env.inner = r.bytes();
  if (!r.ok())
    return Error(ErrorCode::kIntegrityViolation,
                 "snapshot envelope truncated");
  MIG_RETURN_IF_ERROR(r.finish());
  if (env.counter == 0)
    return Error(ErrorCode::kIntegrityViolation,
                 "snapshot envelope: counter 0 is never granted");
  if (env.inner.empty())
    return Error(ErrorCode::kIntegrityViolation,
                 "snapshot envelope: empty sealed payload");
  return env;
}

// ---- incremental checkpoint wire format (v3) ----

bool is_delta_segment(ByteSpan blob) { return has_magic(blob, kDeltaSegMagic); }

bool is_delta_checkpoint(ByteSpan blob) {
  return has_magic(blob, kDeltaBoxMagic);
}

void chain_delta_segment(util::ByteChain& c, const DeltaSegment& seg) {
  MIG_CHECK(seg.chain.size() == 32);
  MIG_CHECK(seg.final_segment || seg.trailer.empty());
  put_magic(c, kDeltaSegMagic);
  c.u8(static_cast<uint8_t>(seg.alg));
  c.u64(seg.index);
  c.u8(seg.final_segment ? 1 : 0);
  c.u64(seg.records.size());
  for (const DeltaRecord& rec : seg.records) {
    c.u64(rec.page);
    c.u64(rec.version);
    c.u8(static_cast<uint8_t>(rec.kind));
    c.bytes(rec.payload);
  }
  c.bytes(seg.trailer);
  c.raw_inline(seg.chain);
}

Bytes encode_delta_segment(const DeltaSegment& seg) {
  util::ByteChain c;
  chain_delta_segment(c, seg);
  return c.flatten();
}

Result<DeltaSegment> parse_delta_segment(ByteSpan blob) {
  if (!is_delta_segment(blob))
    return Error(ErrorCode::kIntegrityViolation, "not a delta segment");
  Reader r(blob.subspan(4));
  DeltaSegment seg;
  uint8_t alg = r.u8();
  seg.index = r.u64();
  uint8_t fin = r.u8();
  uint64_t count = r.u64();
  if (!r.ok() || !valid_alg(alg) || fin > 1)
    return Error(ErrorCode::kIntegrityViolation, "delta segment malformed");
  seg.alg = static_cast<crypto::CipherAlg>(alg);
  seg.final_segment = fin == 1;
  if (count > kMaxDeltaRecords)
    return Error(ErrorCode::kIntegrityViolation,
                 "delta segment: absurd record count");
  seg.records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DeltaRecord rec;
    rec.page = r.u64();
    rec.version = r.u64();
    uint8_t kind = r.u8();
    rec.payload = r.bytes();
    if (!r.ok() || kind > static_cast<uint8_t>(DeltaRecordKind::kRemote))
      return Error(ErrorCode::kIntegrityViolation,
                   "delta segment: bad record " + std::to_string(i));
    rec.kind = static_cast<DeltaRecordKind>(kind);
    if (rec.kind == DeltaRecordKind::kZero && !rec.payload.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "delta segment: zero record carries payload");
    if (rec.kind == DeltaRecordKind::kDup && rec.payload.size() != 32)
      return Error(ErrorCode::kIntegrityViolation,
                   "delta segment: dup record without a 32-byte hash");
    if (rec.kind == DeltaRecordKind::kRemote && rec.payload.size() != 32)
      return Error(ErrorCode::kIntegrityViolation,
                   "delta segment: remote record without a 32-byte hash");
    if (rec.kind == DeltaRecordKind::kRemote && fin != 1)
      return Error(ErrorCode::kIntegrityViolation,
                   "delta segment: remote record outside the final segment");
    seg.records.push_back(std::move(rec));
  }
  seg.trailer = r.bytes();
  seg.chain = r.raw(32);
  MIG_RETURN_IF_ERROR(r.finish());
  if (!seg.final_segment && !seg.trailer.empty())
    return Error(ErrorCode::kIntegrityViolation,
                 "delta segment: trailer on a non-final segment");
  return seg;
}

Bytes encode_delta_container(const std::vector<Bytes>& segments) {
  MIG_CHECK(!segments.empty());
  Writer w;
  put_magic(w, kDeltaBoxMagic);
  w.u64(segments.size());
  for (const Bytes& seg : segments) w.bytes(seg);
  return w.take();
}

Result<std::vector<Bytes>> parse_delta_container(ByteSpan blob) {
  if (!is_delta_checkpoint(blob))
    return Error(ErrorCode::kIntegrityViolation, "not a delta checkpoint");
  Reader r(blob.subspan(4));
  uint64_t count = r.u64();
  if (!r.ok() || count == 0 || count > kMaxDeltaSegments)
    return Error(ErrorCode::kIntegrityViolation,
                 "delta checkpoint: absurd segment count");
  std::vector<Bytes> segments;
  segments.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Bytes seg = r.bytes();
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "delta checkpoint: truncated at segment " +
                       std::to_string(i));
    segments.push_back(std::move(seg));
  }
  MIG_RETURN_IF_ERROR(r.finish());
  return segments;
}

// ---- remote-page protocol (wire format v4) ----

bool is_page_frame(ByteSpan blob) { return has_magic(blob, kPageMagic); }

std::optional<PageFrameKind> page_frame_kind(ByteSpan blob) {
  if (!has_magic(blob, kPageMagic) || blob.size() < 5) return std::nullopt;
  uint8_t kind = blob[4];
  if (kind > static_cast<uint8_t>(PageFrameKind::kDone)) return std::nullopt;
  return static_cast<PageFrameKind>(kind);
}

Bytes encode_page_request(const PageRequest& req) {
  MIG_CHECK(req.epoch != 0);
  MIG_CHECK(!req.pages.empty());
  Writer w;
  put_magic(w, kPageMagic);
  w.u8(static_cast<uint8_t>(PageFrameKind::kRequest));
  w.u64(req.epoch);
  w.u64(req.pages.size());
  for (uint64_t page : req.pages) w.u64(page);
  return w.take();
}

void chain_page_reply(util::ByteChain& c, const PageReply& reply) {
  MIG_CHECK(reply.epoch != 0);
  put_magic(c, kPageMagic);
  c.u8(static_cast<uint8_t>(PageFrameKind::kReply));
  c.u64(reply.epoch);
  c.u64(reply.first_seq);
  c.u64(reply.records.size());
  for (const PageReplyRecord& rec : reply.records) {
    MIG_CHECK(rec.chain.size() == 32);
    c.u64(rec.page);
    c.u64(rec.version);
    c.bytes(rec.sealed);
    c.raw_inline(rec.chain);
  }
}

Bytes encode_page_reply(const PageReply& reply) {
  util::ByteChain c;
  chain_page_reply(c, reply);
  return c.flatten();
}

Bytes encode_page_done() {
  Writer w;
  put_magic(w, kPageMagic);
  w.u8(static_cast<uint8_t>(PageFrameKind::kDone));
  return w.take();
}

Result<PageRequest> parse_page_request(ByteSpan blob) {
  if (page_frame_kind(blob) != PageFrameKind::kRequest)
    return Error(ErrorCode::kIntegrityViolation, "not a page request");
  Reader r(blob.subspan(5));
  PageRequest req;
  req.epoch = r.u64();
  uint64_t count = r.u64();
  if (!r.ok() || req.epoch == 0)
    return Error(ErrorCode::kIntegrityViolation, "page request malformed");
  if (count == 0 || count > kMaxPageRecords)
    return Error(ErrorCode::kIntegrityViolation,
                 "page request: absurd page count");
  req.pages.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t page = r.u64();
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "page request: truncated at page index " +
                       std::to_string(i));
    if (!req.pages.empty() && page <= req.pages.back())
      return Error(ErrorCode::kIntegrityViolation,
                   "page request: pages not strictly increasing at index " +
                       std::to_string(i));
    req.pages.push_back(page);
  }
  MIG_RETURN_IF_ERROR(r.finish());
  return req;
}

Result<PageReply> parse_page_reply(ByteSpan blob) {
  if (page_frame_kind(blob) != PageFrameKind::kReply)
    return Error(ErrorCode::kIntegrityViolation, "not a page reply");
  Reader r(blob.subspan(5));
  PageReply reply;
  reply.epoch = r.u64();
  reply.first_seq = r.u64();
  uint64_t count = r.u64();
  if (!r.ok() || reply.epoch == 0)
    return Error(ErrorCode::kIntegrityViolation, "page reply malformed");
  if (count == 0 || count > kMaxPageRecords)
    return Error(ErrorCode::kIntegrityViolation,
                 "page reply: absurd record count");
  reply.records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PageReplyRecord rec;
    rec.page = r.u64();
    rec.version = r.u64();
    rec.sealed = r.bytes();
    rec.chain = r.raw(32);
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "page reply: truncated at record " + std::to_string(i));
    if (rec.sealed.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "page reply: empty sealed payload at record " +
                       std::to_string(i));
    reply.records.push_back(std::move(rec));
  }
  MIG_RETURN_IF_ERROR(r.finish());
  return reply;
}

// ---- quorum counter service wire formats ----

bool is_quorum_reply(ByteSpan blob) { return has_magic(blob, kQuorumMagic); }

Bytes encode_quorum_membership(const QuorumMembership& m) {
  MIG_CHECK(!m.members.empty() && m.members.size() % 2 == 1);
  Writer w;
  put_magic(w, kMembershipMagic);
  w.u64(m.members.size());
  for (const QuorumMember& mem : m.members) {
    MIG_CHECK(mem.measurement.size() == 32);
    MIG_CHECK(!mem.pk.empty());
    w.u64(mem.id);
    w.raw(mem.measurement);
    w.bytes(mem.pk);
  }
  return w.take();
}

Result<QuorumMembership> parse_quorum_membership(ByteSpan blob) {
  if (!has_magic(blob, kMembershipMagic))
    return Error(ErrorCode::kIntegrityViolation, "not a quorum membership");
  Reader r(blob.subspan(4));
  uint64_t n = r.u64();
  if (!r.ok() || n == 0 || n > kMaxQuorumReplicas)
    return Error(ErrorCode::kIntegrityViolation,
                 "quorum membership: absurd member count");
  if (n % 2 == 0)
    return Error(ErrorCode::kIntegrityViolation,
                 "quorum membership: member count must be 2f+1 (odd)");
  QuorumMembership m;
  m.members.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    QuorumMember mem;
    mem.id = r.u64();
    mem.measurement = r.raw(32);
    mem.pk = r.bytes();
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum membership: truncated at member " +
                       std::to_string(i));
    if (mem.pk.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum membership: empty key for member " +
                       std::to_string(i));
    for (const QuorumMember& prev : m.members) {
      if (prev.id == mem.id)
        return Error(ErrorCode::kIntegrityViolation,
                     "quorum membership: duplicate replica id " +
                         std::to_string(mem.id));
    }
    m.members.push_back(std::move(mem));
  }
  MIG_RETURN_IF_ERROR(r.finish());
  return m;
}

Bytes encode_quorum_reply(const QuorumReplyEnvelope& env) {
  MIG_CHECK(!env.records.empty());
  MIG_CHECK(env.records.size() == env.sigs.size());
  Writer w;
  put_magic(w, kQuorumMagic);
  w.u64(env.records.size());
  for (const QuorumReplyRecord& rec : env.records) {
    MIG_CHECK(rec.key_commit.size() == 32);
    MIG_CHECK(rec.root.size() == 32);
    w.u64(rec.replica_id);
    w.u64(rec.counter);
    w.raw(rec.key_commit);
    w.u64(rec.tree_size);
    w.raw(rec.root);
    w.bytes(rec.leaf);
    w.u64(rec.proof.size());
    for (const Bytes& node : rec.proof) {
      MIG_CHECK(node.size() == 32);
      w.raw(node);
    }
    w.bytes(rec.dh_pub_s);
    w.bytes(rec.enc_key);
  }
  w.u64(env.sigs.size());
  for (const Bytes& sig : env.sigs) w.bytes(sig);
  return w.take();
}

Result<QuorumReplyEnvelope> parse_quorum_reply(ByteSpan blob) {
  if (!is_quorum_reply(blob))
    return Error(ErrorCode::kIntegrityViolation, "not a quorum reply");
  Reader r(blob.subspan(4));
  uint64_t count = r.u64();
  if (!r.ok())
    return Error(ErrorCode::kIntegrityViolation, "quorum reply malformed");
  if (count == 0)
    return Error(ErrorCode::kIntegrityViolation,
                 "quorum reply: empty reply set");
  if (count > kMaxQuorumReplicas)
    return Error(ErrorCode::kIntegrityViolation,
                 "quorum reply: absurd record count");
  QuorumReplyEnvelope env;
  env.records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    QuorumReplyRecord rec;
    rec.replica_id = r.u64();
    rec.counter = r.u64();
    rec.key_commit = r.raw(32);
    rec.tree_size = r.u64();
    rec.root = r.raw(32);
    rec.leaf = r.bytes();
    uint64_t proof_len = r.u64();
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: truncated record " + std::to_string(i));
    if (proof_len > kMaxQuorumProofNodes)
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: absurd proof length in record " +
                       std::to_string(i));
    rec.proof.reserve(proof_len);
    for (uint64_t p = 0; p < proof_len; ++p) {
      Bytes node = r.raw(32);
      if (!r.ok())
        return Error(ErrorCode::kIntegrityViolation,
                     "quorum reply: truncated merkle proof in record " +
                         std::to_string(i));
      rec.proof.push_back(std::move(node));
    }
    rec.dh_pub_s = r.bytes();
    rec.enc_key = r.bytes();
    if (!r.ok())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: truncated record " + std::to_string(i));
    if (rec.counter == 0)
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: counter 0 is never granted (record " +
                       std::to_string(i) + ")");
    if (rec.tree_size == 0 || rec.leaf.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: empty audit log in record " +
                       std::to_string(i));
    for (const QuorumReplyRecord& prev : env.records) {
      if (prev.replica_id == rec.replica_id)
        return Error(ErrorCode::kIntegrityViolation,
                     "quorum reply: duplicate replica id " +
                         std::to_string(rec.replica_id));
    }
    env.records.push_back(std::move(rec));
  }
  uint64_t sig_count = r.u64();
  if (!r.ok() || sig_count != count)
    return Error(ErrorCode::kIntegrityViolation,
                 "quorum reply: signature count does not match record count");
  env.sigs.reserve(sig_count);
  for (uint64_t i = 0; i < sig_count; ++i) {
    Bytes sig = r.bytes();
    if (!r.ok() || sig.empty())
      return Error(ErrorCode::kIntegrityViolation,
                   "quorum reply: bad signature " + std::to_string(i));
    env.sigs.push_back(std::move(sig));
  }
  MIG_RETURN_IF_ERROR(r.finish());
  return env;
}

Result<CounterRequest> parse_counter_request(ByteSpan blob) {
  Reader r(blob);
  CounterRequest req;
  req.verb = r.str();
  req.counter_arg = r.u64();
  req.dh_pub = r.bytes();
  req.quote = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  return req;
}

Bytes encode_counter_grant(const CounterGrantReply& reply) {
  Writer w;
  w.str(reply.tag);
  w.u64(reply.counter);
  w.bytes(reply.dh_pub_s);
  w.bytes(reply.enc_key);
  w.bytes(reply.sig);
  return w.take();
}

Bytes encode_counter_refusal(std::string_view why) {
  return encode_counter_grant({"REFUSED:" + std::string(why), 0, {}, {}, {}});
}

Result<CounterGrantReply> parse_counter_grant(ByteSpan blob) {
  Reader r(blob);
  CounterGrantReply reply;
  reply.tag = r.str();
  reply.counter = r.u64();
  reply.dh_pub_s = r.bytes();
  reply.enc_key = r.bytes();
  reply.sig = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  return reply;
}

Bytes counter_grant_transcript(std::string_view verb, ByteSpan dh_pub_e,
                               const CounterGrantReply& reply) {
  Writer t;
  t.str("ctr-reply");
  t.str(verb);
  t.u64(reply.counter);
  t.bytes(dh_pub_e);
  t.bytes(reply.dh_pub_s);
  t.bytes(reply.enc_key);
  return t.take();
}

Bytes quorum_reply_transcript(std::string_view verb, ByteSpan dh_pub_e,
                              const QuorumReplyRecord& rec) {
  // The proof is deliberately outside the transcript: it is verified against
  // the signed root, so tampering with it is already detected, and keeping it
  // unsigned lets a replica prove the same leaf against later roots.
  Writer t;
  t.str("qrm-reply");
  t.str(verb);
  t.bytes(dh_pub_e);
  t.u64(rec.replica_id);
  t.u64(rec.counter);
  t.raw(rec.key_commit);
  t.u64(rec.tree_size);
  t.raw(rec.root);
  t.bytes(rec.leaf);
  t.bytes(rec.dh_pub_s);
  t.bytes(rec.enc_key);
  return t.take();
}

}  // namespace mig::sdk
