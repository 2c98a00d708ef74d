// Minimal blocking HTTP/1.1 client for the serve_mixed workload: one
// keep-alive connection to 127.0.0.1, Content-Length framed requests and
// responses (the subset server/http.h speaks).
#ifndef GRAPHSURGE_BENCH_E2E_HTTP_CLIENT_H_
#define GRAPHSURGE_BENCH_E2E_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace gs::bench::e2e {

struct HttpReply {
  int status = 0;  // 0: transport or framing error
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  HttpReply Post(const std::string& path, const std::string& body) {
    return Exchange("POST " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
  }

  HttpReply Get(const std::string& path) {
    return Exchange("GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  }

 private:
  HttpReply Exchange(const std::string& request) {
    HttpReply reply;
    if (fd_ < 0 || !SendAll(request)) return reply;
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Receive()) return reply;
    }
    // "HTTP/1.1 200 OK"
    const size_t space = buffer_.find(' ');
    if (space == std::string::npos || space > head_end) return reply;
    const int status = std::atoi(buffer_.c_str() + space + 1);
    const size_t length = ContentLength(buffer_.substr(0, head_end));
    const size_t total = head_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Receive()) return reply;
    }
    reply.body = buffer_.substr(head_end + 4, length);
    buffer_.erase(0, total);
    reply.status = status;
    return reply;
  }

  static size_t ContentLength(const std::string& head) {
    std::string lower = head;
    for (char& ch : lower) {
      if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    }
    const size_t at = lower.find("\r\ncontent-length:");
    if (at == std::string::npos) return 0;
    return static_cast<size_t>(
        std::strtoull(head.c_str() + at + 17, nullptr, 10));
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Receive() {
    char chunk[16384];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace gs::bench::e2e

#endif  // GRAPHSURGE_BENCH_E2E_HTTP_CLIENT_H_
