#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace hds::service {

ServeClient::~ServeClient() { close(); }

bool ServeClient::connect(std::uint16_t port, int timeout_s) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (timeout_s > 0) {
    timeval tv{};
    tv.tv_sec = timeout_s;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  // Requests are one write each (write_frame); send them without waiting
  // on Nagle's algorithm.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  return true;
}

std::optional<Response> ServeClient::call(const Request& req) {
  if (fd_ < 0) return std::nullopt;
  if (!write_frame(fd_, encode_request(req))) return std::nullopt;
  const auto frame = read_frame(fd_);
  if (!frame.has_value()) return std::nullopt;
  return decode_response(*frame);
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hds::service
