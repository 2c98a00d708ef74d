// Dependency-free HTTP/1.1 plumbing for the one listener
// (server/status_server.h), which the status pages and the query-serving
// front end share: request parsing (GET/HEAD/POST with Content-Length
// bodies, keep-alive and pipelining, strict rejection of what we do not
// speak) and response rendering over raw POSIX sockets.
//
// The protocol subset is deliberate:
//   - Bodies require Content-Length. POST without one is 411; a body larger
//     than 1 MiB is 413 without reading it (POST bodies are statements, not
//     data uploads). A request head larger than 8 KiB is 400.
//   - Transfer-Encoding (chunked or otherwise) is rejected with 501 —
//     ignoring it and misreading the framing would be worse than refusing.
//   - Every parse error produces a complete HTTP error response the caller
//     writes before closing; the connection never continues past an error,
//     because framing is unreliable from that point on.
//   - Keep-alive follows HTTP/1.1 defaults (persistent unless the client
//     says `Connection: close`), and `buffer` carries bytes past the
//     current request so pipelined requests parse without extra reads.
#ifndef GRAPHSURGE_SERVER_HTTP_H_
#define GRAPHSURGE_SERVER_HTTP_H_

#include <map>
#include <string>

namespace gs::server {

/// What a handler returns: the response body plus its media type.
struct HttpResponse {
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  int status_code = 200;
};

namespace http {

/// One parsed request.
struct Request {
  std::string method;
  std::string path;   // request target with the query string stripped
  std::string query;  // the stripped query string (without '?'), if any
  /// Header fields, names lowercased, values trimmed of outer whitespace.
  std::map<std::string, std::string> headers;
  std::string body;
  /// Whether the connection may carry another request after this exchange
  /// (HTTP/1.1 default, overridden by `Connection: close`).
  bool keep_alive = false;
};

/// Outcome of reading one request off a connection.
struct ReadResult {
  enum class Kind {
    kRequest,  // `request` is valid
    kClosed,   // peer closed (or stalled) without sending a request
    kError     // protocol violation; `error` is the response to send,
               // after which the connection must be closed
  };
  Kind kind = Kind::kClosed;
  Request request;
  HttpResponse error;
};

/// Reads one request from `fd` (blocking, honoring any SO_RCVTIMEO set by
/// the caller). `buffer` holds bytes received beyond previous requests and
/// returns with any bytes past this one — pass the same string across
/// calls on a connection to support pipelining.
ReadResult ReadRequest(int fd, std::string* buffer);

const char* ReasonPhrase(int code);

/// Renders status line + headers + body. `keep_alive` selects the
/// advertised `Connection:` disposition; the caller must actually close
/// the socket when it advertises close.
std::string RenderResponse(const HttpResponse& response, bool keep_alive);

/// Sends all of `data`, retrying short writes; gives up silently if the
/// peer goes away (there is nobody left to tell).
void WriteAll(int fd, const std::string& data);

}  // namespace http
}  // namespace gs::server

#endif  // GRAPHSURGE_SERVER_HTTP_H_
