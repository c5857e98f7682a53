#include "service/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>

#include "common/byte_io.h"

namespace hds::service {

namespace {

// recv exactly `size` bytes; false on EOF, error, or timeout.
bool recv_all(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone, reset, or SO_RCVTIMEO expired
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Sends the buffers in `iov` in order, resuming after short writes.
bool send_all(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone or SO_SNDTIMEO expired (stalled reader)
    }
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return true;
}

}  // namespace

bool valid_tenant_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > kMaxTenantName) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(req.op));
  w.u8(static_cast<std::uint8_t>(req.tenant.size()));
  w.raw({reinterpret_cast<const std::uint8_t*>(req.tenant.data()),
         req.tenant.size()});
  w.blob({reinterpret_cast<const std::uint8_t*>(req.label.data()),
          req.label.size()});
  w.u32(req.version);
  w.raw(req.data);
  return w.take();
}

std::optional<Request> decode_request(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  Request req;
  std::uint8_t op = 0, tenant_len = 0;
  if (!r.u8(op) || op > static_cast<std::uint8_t>(Op::kFsck)) {
    return std::nullopt;
  }
  req.op = static_cast<Op>(op);
  if (!r.u8(tenant_len)) return std::nullopt;
  req.tenant.resize(tenant_len);
  if (!r.raw({reinterpret_cast<std::uint8_t*>(req.tenant.data()),
              req.tenant.size()})) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> label;
  if (!r.blob(label)) return std::nullopt;
  req.label.assign(label.begin(), label.end());
  if (!r.u32(req.version)) return std::nullopt;
  // Whatever trails the fixed fields is the operation payload. The reader
  // validated every prefix field, so this offset is in bounds.
  const std::size_t prefix = 1 + 1 + req.tenant.size() + 4 + label.size() + 4;
  req.data.assign(payload.begin() + static_cast<std::ptrdiff_t>(prefix),
                  payload.end());
  return req;
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.blob({reinterpret_cast<const std::uint8_t*>(resp.message.data()),
          resp.message.size()});
  w.raw(resp.data);
  return w.take();
}

std::optional<Response> decode_response(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  Response resp;
  std::uint8_t status = 0;
  if (!r.u8(status) ||
      status > static_cast<std::uint8_t>(Status::kQuotaExceeded)) {
    return std::nullopt;
  }
  resp.status = static_cast<Status>(status);
  std::vector<std::uint8_t> message;
  if (!r.blob(message)) return std::nullopt;
  resp.message.assign(message.begin(), message.end());
  const std::size_t prefix = 1 + 4 + message.size();
  resp.data.assign(payload.begin() + static_cast<std::ptrdiff_t>(prefix),
                   payload.end());
  return resp;
}

bool write_frame(int fd, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  // Header and payload leave in one call: a lone 4-byte header write would
  // let Nagle's algorithm hold the payload until the peer's delayed ACK.
  iovec iov[2] = {{header, sizeof header},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  return send_all(fd, iov, 2);
}

std::optional<std::vector<std::uint8_t>> read_frame(int fd,
                                                    std::uint32_t max_bytes) {
  std::uint8_t header[4];
  if (!recv_all(fd, header, sizeof header)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | header[i];
  if (len > max_bytes) return std::nullopt;
  std::vector<std::uint8_t> payload(len);
  if (len > 0 && !recv_all(fd, payload.data(), payload.size())) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace hds::service
