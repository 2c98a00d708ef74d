#include "server/http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace gs::server::http {

namespace {

/// Upper bound on the buffered request head (request line + headers).
constexpr size_t kMaxHeadBytes = 8192;

/// Upper bound on an accepted Content-Length. Requests declaring more are
/// rejected with 413 before any body byte is read.
constexpr size_t kMaxBodyBytes = 1 << 20;

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

ReadResult Reject(int code, const std::string& message) {
  ReadResult out;
  out.kind = ReadResult::Kind::kError;
  out.error.status_code = code;
  out.error.body = message;
  return out;
}

/// Appends more bytes from the socket. Returns false when the peer closed
/// or stalled past the socket timeout (no more bytes will come).
bool RecvMore(int fd, std::string* buffer) {
  char buf[2048];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      buffer->append(buf, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // closed, timed out, or errored
  }
}

}  // namespace

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string RenderResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status_code) + " " +
                    ReasonPhrase(response.status_code) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

void WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing useful to do
    }
    sent += static_cast<size_t>(n);
  }
}

ReadResult ReadRequest(int fd, std::string* buffer) {
  // Buffer the head. A peer that closes or stalls mid-head is handled the
  // way the status server always has: nothing at all means no request;
  // a partial head falls through to the request-line parse, which rejects
  // whatever is incomplete about it.
  bool open = true;
  while (buffer->find("\r\n\r\n") == std::string::npos &&
         buffer->size() < kMaxHeadBytes) {
    if (!RecvMore(fd, buffer)) {
      open = false;
      break;
    }
  }
  if (buffer->empty()) return ReadResult();  // kClosed

  // A head that hit the size cap without terminating is rejected outright —
  // parsing a prefix of a request line of unknown total length risks
  // dispatching a truncated target.
  size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos &&
      buffer->size() >= kMaxHeadBytes) {
    return Reject(400, "request head too large\n");
  }

  // Request line: METHOD SP target SP version CRLF.
  size_t line_end = buffer->find("\r\n");
  if (line_end == std::string::npos) line_end = buffer->size();
  const std::string line = buffer->substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || sp1 == 0 ||
      sp2 == sp1 + 1) {
    return Reject(400, "malformed request line\n");
  }

  ReadResult out;
  out.kind = ReadResult::Kind::kRequest;
  Request& req = out.request;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  // Handlers are parameterless views; the query string is split off and
  // retained for completeness only.
  size_t query = target.find('?');
  if (query != std::string::npos) {
    req.query = target.substr(query + 1);
    target.resize(query);
  }
  req.path = std::move(target);
  req.keep_alive = version == "HTTP/1.1";

  // Header fields (only present when the head terminated properly; a
  // partial head served at EOF has none, matching the historical
  // line-only parse).
  size_t header_bytes_end = head_end == std::string::npos
                                ? buffer->size()
                                : head_end;
  size_t pos = line_end + 2;
  while (pos < header_bytes_end) {
    size_t eol = buffer->find("\r\n", pos);
    if (eol == std::string::npos || eol > header_bytes_end) {
      eol = header_bytes_end;
    }
    const std::string field = buffer->substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = field.find(':');
    if (colon == std::string::npos) continue;  // lenient: skip junk lines
    req.headers[ToLower(field.substr(0, colon))] =
        Trim(field.substr(colon + 1));
  }

  auto connection = req.headers.find("connection");
  if (connection != req.headers.end()) {
    const std::string value = ToLower(connection->second);
    if (value.find("close") != std::string::npos) {
      req.keep_alive = false;
    } else if (value.find("keep-alive") != std::string::npos) {
      req.keep_alive = true;
    }
  }

  // Consume the head; what remains in `buffer` is body and/or pipelined
  // requests.
  buffer->erase(0, head_end == std::string::npos ? buffer->size()
                                                 : head_end + 4);

  // Body framing. We speak exactly one framing: Content-Length. A request
  // advertising a Transfer-Encoding is refused — silently ignoring it
  // would desynchronize the connection on the unread chunked body.
  if (req.headers.count("transfer-encoding") != 0) {
    return Reject(501, "transfer encoding is not supported\n");
  }
  size_t content_length = 0;
  auto cl = req.headers.find("content-length");
  if (cl != req.headers.end()) {
    const std::string& value = cl->second;
    if (value.empty()) return Reject(400, "invalid Content-Length\n");
    for (char c : value) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return Reject(400, "invalid Content-Length\n");
      }
    }
    errno = 0;
    const unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE || parsed > kMaxBodyBytes) {
      return Reject(413, "request body too large\n");
    }
    content_length = static_cast<size_t>(parsed);
  } else if (req.method == "POST" || req.method == "PUT") {
    return Reject(411, "Content-Length required\n");
  }

  while (buffer->size() < content_length) {
    if (!open || !RecvMore(fd, buffer)) {
      return Reject(400, "incomplete request body\n");
    }
  }
  req.body = buffer->substr(0, content_length);
  buffer->erase(0, content_length);
  return out;
}

}  // namespace gs::server::http
