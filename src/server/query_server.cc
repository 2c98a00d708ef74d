#include "server/query_server.h"

#include <cctype>
#include <utility>

#include "common/introspect.h"
#include "common/metrics.h"

namespace gs::server {

namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += introspect::JsonEscape(s);
  out += '"';
  return out;
}

HttpResponse JsonOk(std::string body_fields) {
  HttpResponse r;
  r.content_type = "application/json";
  r.body = "{\"ok\": true" +
           (body_fields.empty() ? std::string() : ", " + body_fields) + "}\n";
  return r;
}

HttpResponse JsonError(int code, const std::string& message) {
  HttpResponse r;
  r.status_code = code;
  r.content_type = "application/json";
  r.body = "{\"ok\": false, \"error\": " + Quoted(message) + "}\n";
  return r;
}

/// Client errors — a malformed statement, an unknown name, a name already
/// taken — answer 400; everything else is the server's fault.
HttpResponse StatusError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kParseError:
      return JsonError(400, status.ToString());
    default:
      return JsonError(500, status.ToString());
  }
}

/// The answer to one executed statement. `get results` renders
/// deterministically: view order is execution order, vertex order is
/// ResultMap (std::map) order — two sessions that ran the same statement
/// read byte-identical bodies.
HttpResponse RenderStatement(const StatementResult& result,
                             const Graphsurge::Session& session) {
  switch (result.kind) {
    case StatementResult::Kind::kDefinitions: {
      std::string fields = "\"created\": [";
      for (size_t i = 0; i < result.created.size(); ++i) {
        if (i != 0) fields += ", ";
        fields += Quoted(result.created[i]);
      }
      fields += "]";
      if (!result.plan.empty()) fields += ", \"plan\": " + Quoted(result.plan);
      return JsonOk(fields);
    }
    case StatementResult::Kind::kRun:
      return JsonOk("\"algorithm\": " + Quoted(result.algorithm) +
                    ", \"target\": " + Quoted(result.target) +
                    ", \"views\": " + std::to_string(result.views));
    case StatementResult::Kind::kResults:
      break;
  }
  std::string body =
      "{\"ok\": true, \"target\": " + Quoted(session.last_target()) +
      ", \"results\": [";
  bool first_view = true;
  for (const auto& [view, values] : session.last_results()) {
    if (!first_view) body += ", ";
    first_view = false;
    body += "{\"view\": " + Quoted(view) + ", \"values\": {";
    bool first = true;
    for (const auto& [vertex, value] : values) {
      if (!first) body += ", ";
      first = false;
      body += '"';
      body += std::to_string(vertex);
      body += "\": ";
      body += std::to_string(value);
    }
    body += "}}";
  }
  body += "]}\n";
  HttpResponse r;
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

/// Minimal JSON parser for the request bodies this server accepts: one
/// flat object with string keys and string values. Anything else —
/// including structurally valid JSON using numbers, arrays, or nesting —
/// is rejected with a message naming the position, and the caller turns
/// that into a 400 with a parseable JSON error body.
bool ParseJsonStringObject(const std::string& text,
                           std::map<std::string, std::string>* out,
                           std::string* error) {
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
            text[i] == '\r')) {
      ++i;
    }
  };
  auto fail = [&](const std::string& what) {
    *error = what + " at byte " + std::to_string(i);
    return false;
  };
  auto parse_string = [&](std::string* s) {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    while (i < text.size() && text[i] != '"') {
      char c = text[i];
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        char e = text[i + 1];
        switch (e) {
          case '"': s->push_back('"'); break;
          case '\\': s->push_back('\\'); break;
          case '/': s->push_back('/'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'n': s->push_back('\n'); break;
          case 'r': s->push_back('\r'); break;
          case 't': s->push_back('\t'); break;
          case 'u': {
            if (i + 5 >= text.size()) return false;
            unsigned code = 0;
            for (int k = 2; k < 6; ++k) {
              char h = text[i + k];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code > 0x7f) return false;  // statements are ASCII
            s->push_back(static_cast<char>(code));
            i += 4;
            break;
          }
          default: return false;
        }
        i += 2;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      } else {
        s->push_back(c);
        ++i;
      }
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return fail("expected string key");
      skip_ws();
      if (i >= text.size() || text[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      std::string value;
      if (!parse_string(&value)) return fail("expected string value");
      (*out)[key] = std::move(value);
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
  }
  skip_ws();
  if (i != text.size()) return fail("trailing content");
  return true;
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
        c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

metrics::Counter* Requests() {
  static auto* c =
      metrics::Registry::Global().GetCounter("gs_query_server_requests");
  return c;
}
metrics::Counter* Statements() {
  static auto* c =
      metrics::Registry::Global().GetCounter("gs_query_server_statements");
  return c;
}
metrics::Counter* RejectedSessionCap() {
  static auto* c = metrics::Registry::Global().GetCounter(
      "gs_query_server_rejected_session_cap");
  return c;
}
metrics::Gauge* SessionsGauge() {
  static auto* g =
      metrics::Registry::Global().GetGauge("gs_query_server_sessions");
  return g;
}

}  // namespace

QueryServer::QueryServer(QueryServerOptions options)
    : options_(options),
      host_([&options] {
        GraphsurgeOptions host;
        host.num_workers = options.num_workers;
        return host;
      }()),
      listener_(options.num_threads) {
  // POST routes, each counted as a query-server request.
  using Route = HttpResponse (QueryServer::*)(const http::Request&);
  auto post = [this](const char* path, Route handle) {
    listener_.HandlePost(path, [this, handle](const http::Request& request) {
      Requests()->Increment();
      return (this->*handle)(request);
    });
  };
  post("/query", &QueryServer::HandleQuery);
  post("/session", &QueryServer::HandleSessionOpen);
  post("/session/close", &QueryServer::HandleSessionClose);
  listener_.Handle("/sessionz", [this] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = SessionzJson();
    return r;
  });
  listener_.Handle("/profilez", [this] {
    HttpResponse r;
    r.body = host_.Profile();
    return r;
  });
}

QueryServer::~QueryServer() { Stop(); }

std::shared_ptr<QueryServer::Session> QueryServer::AdmitSession(
    const std::string& name, HttpResponse* error) {
  if (!ValidSessionName(name)) {
    *error = JsonError(
        400, "invalid session name (alphanumeric, '-', '_', '.'; max 128)");
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) return it->second;
  if (sessions_.size() >= options_.max_sessions) {
    RejectedSessionCap()->Increment();
    *error = JsonError(503, "session limit reached (" +
                                std::to_string(options_.max_sessions) + ")");
    return nullptr;
  }
  auto session = std::make_shared<Session>();
  sessions_[name] = session;
  SessionsGauge()->Set(static_cast<int64_t>(sessions_.size()));
  return session;
}

HttpResponse QueryServer::HandleSessionOpen(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto it = fields.find("session");
  if (it == fields.end()) {
    return JsonError(400, "missing field \"session\"");
  }
  HttpResponse error;
  if (AdmitSession(it->second, &error) == nullptr) return error;
  return JsonOk("\"session\": " + Quoted(it->second));
}

HttpResponse QueryServer::HandleSessionClose(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto it = fields.find("session");
  if (it == fields.end()) {
    return JsonError(400, "missing field \"session\"");
  }
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto found = sessions_.find(it->second);
    if (found == sessions_.end()) {
      return JsonError(404, "no session named '" + it->second + "'");
    }
    session = std::move(found->second);
    sessions_.erase(found);
    SessionsGauge()->Set(static_cast<int64_t>(sessions_.size()));
  }
  // Serialize with any in-flight statement so its state is not destroyed
  // under it; the shared_ptr keeps the storage alive either way.
  std::lock_guard<std::mutex> lock(session->mutex);
  return JsonOk("\"closed\": " + Quoted(it->second));
}

HttpResponse QueryServer::HandleQuery(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto session_field = fields.find("session");
  auto statement_field = fields.find("statement");
  if (session_field == fields.end() || statement_field == fields.end()) {
    return JsonError(400, "required fields: \"session\", \"statement\"");
  }
  // An empty script is a no-op to the embedded API; over HTTP it is a 400.
  const std::string& statement = statement_field->second;
  if (statement.find_first_not_of(" \t\r\n") == std::string::npos) {
    return JsonError(400, "empty statement");
  }
  HttpResponse error;
  std::shared_ptr<Session> session =
      AdmitSession(session_field->second, &error);
  if (session == nullptr) return error;
  Statements()->Increment();
  std::lock_guard<std::mutex> lock(session->mutex);
  StatusOr<StatementResult> result = host_.Execute(&session->state, statement);
  if (!result.ok()) return StatusError(result.status());
  return RenderStatement(*result, session->state);
}

Status QueryServer::AddGraph(const std::string& name, PropertyGraph graph) {
  if (running()) {
    return Status::FailedPrecondition("host graphs are fixed while serving");
  }
  return host_.AddGraph(name, std::move(graph));
}

Status QueryServer::LoadGraphCsv(const std::string& name,
                                 const std::string& nodes_path,
                                 const std::string& edges_path) {
  if (running()) {
    return Status::FailedPrecondition("host graphs are fixed while serving");
  }
  return host_.LoadGraphCsv(name, nodes_path, edges_path);
}

size_t QueryServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::string QueryServer::SessionzJson() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::string s = "{\"max_sessions\": " +
                  std::to_string(options_.max_sessions) +
                  ", \"sessions\": [";
  bool first = true;
  for (const auto& [name, session] : sessions_) {
    if (!first) s += ", ";
    first = false;
    s += "{\"name\": " + Quoted(name) + "}";
  }
  s += "]}\n";
  return s;
}

}  // namespace gs::server
