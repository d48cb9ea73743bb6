#include "codar/store/report_codec.hpp"

#include <cstring>

namespace codar::store {

namespace {

void put_u64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(bytes, sizeof bytes);
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::string* out, std::string_view s) {
  put_u64(out, s.size());
  out->append(s.data(), s.size());
}

/// Bounds-checked little-endian reader over the encoded bytes.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool u64(std::uint64_t* v) {
    if (bytes_.size() - pos_ < 8) return ok_ = false;
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof bits);
    return true;
  }

  bool str(std::string* s) {
    std::uint64_t size = 0;
    if (!u64(&size)) return false;
    if (size > bytes_.size() - pos_) return ok_ = false;
    s->assign(bytes_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return true;
  }

  bool done() const { return ok_ && pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string encode_report(const pipeline::RouteReport& r) {
  std::string out;
  out.reserve(256 + r.name.size() + r.error.size() + r.routed_qasm.size());
  put_u64(&out, kReportCodecVersion);
  put_str(&out, r.name);
  put_str(&out, r.error);
  put_u64(&out, (r.verified ? 1u : 0u) | (r.verify_skipped ? 2u : 0u));
  put_u64(&out, static_cast<std::uint64_t>(r.qubits));
  put_u64(&out, r.gates_in);
  put_u64(&out, r.gates_out);
  put_u64(&out, r.gates_routed);
  put_u64(&out, r.barriers);
  put_u64(&out, r.swaps);
  put_u64(&out, r.forced_swaps);
  put_u64(&out, r.escape_swaps);
  put_u64(&out, r.cycles);
  put_u64(&out, static_cast<std::uint64_t>(r.makespan));
  put_u64(&out, static_cast<std::uint64_t>(r.depth_in));
  put_u64(&out, static_cast<std::uint64_t>(r.depth_out));
  put_f64(&out, r.log_esp);
  put_str(&out, r.routed_qasm);
  return out;
}

bool decode_report(std::string_view bytes, pipeline::RouteReport* report) {
  Reader in(bytes);
  std::uint64_t version = 0;
  if (!in.u64(&version) || version != kReportCodecVersion) return false;

  pipeline::RouteReport r;
  std::uint64_t flags = 0;
  std::uint64_t qubits = 0;
  std::uint64_t makespan = 0;
  std::uint64_t depth_in = 0;
  std::uint64_t depth_out = 0;
  const bool fields_ok =
      in.str(&r.name) && in.str(&r.error) && in.u64(&flags) &&
      in.u64(&qubits) && in.u64(&r.gates_in) && in.u64(&r.gates_out) &&
      in.u64(&r.gates_routed) && in.u64(&r.barriers) && in.u64(&r.swaps) &&
      in.u64(&r.forced_swaps) && in.u64(&r.escape_swaps) &&
      in.u64(&r.cycles) && in.u64(&makespan) && in.u64(&depth_in) &&
      in.u64(&depth_out) && in.f64(&r.log_esp) && in.str(&r.routed_qasm);
  if (!fields_ok || !in.done()) return false;  // short, or trailing garbage
  r.verified = (flags & 1u) != 0;
  r.verify_skipped = (flags & 2u) != 0;
  r.qubits = static_cast<int>(qubits);
  r.makespan = static_cast<arch::Duration>(makespan);
  r.depth_in = static_cast<arch::Duration>(depth_in);
  r.depth_out = static_cast<arch::Duration>(depth_out);
  *report = std::move(r);
  return true;
}

}  // namespace codar::store
