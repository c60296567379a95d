#include "serve/server.hpp"

#include <memory>

#include "core/result_cache.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace opm::serve {

namespace {

/// Hard ceiling on batch (array) request size: a batch is a convenience
/// for scripting clients, not a bulk-load side channel around the
/// per-client quota. 64 matches the default queue depth.
constexpr std::size_t kMaxBatchRequests = 64;

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& config)
      : shard(config.dispatch.shard_id),
        dispatcher(config.dispatch),
        errors_protocol(util::MetricsRegistry::instance().counter("serve.errors_protocol")),
        listener(
            ListenerConfig{
                .address = config.listen_address,
                .name = "opm_serve",
                .auth_token = config.auth_token,
                .max_line_bytes = config.max_line_bytes,
                .shard = shard,
                .errors_protocol = &errors_protocol,
                .rejected_auth = &util::MetricsRegistry::instance().counter("serve.rejected_auth"),
            },
            [this](protocol::Request req, const Session& session) {
              submit(std::move(req), session);
            },
            [this](std::string_view line, const Session& session) {
              return handle_batch(line, session);
            }) {}

  int shard;
  Dispatcher dispatcher;
  util::Counter& errors_protocol;
  Listener listener;  // last: its reader threads call into the members above

  void submit(protocol::Request req, const Session& session) {
    dispatcher.submit(session.client, std::move(req),
                      [conn = session.conn](std::string response) { conn->write_line(response); });
  }

  /// A top-level JSON array is a v2 batch: every element is validated and
  /// dispatched independently, and each gets its own response line in
  /// completion order (clients match by req_id). Batch-level faults (not
  /// an array, empty, oversized) answer with one error line carrying an
  /// empty req_id; per-element faults answer under that element's own
  /// recovered envelope. hello cannot ride in a batch — auth is a
  /// connection property, not a request property — so the listener hands
  /// over a gated connection's batches only after its hello line.
  bool handle_batch(std::string_view line, const Session& session) {
    const protocol::Envelope batch_env{2, std::string(), shard};
    auto refuse = [&](const protocol::Envelope& env, const char* category, std::string message) {
      errors_protocol.add(1);
      session.conn->write_line(
          protocol::render_error(env, protocol::make_error(category, std::move(message))));
      return true;  // framing is intact; the connection stays open
    };
    std::string parse_error;
    const auto doc = util::parse_json(line, &parse_error);
    if (!doc || !doc->is_array())
      return refuse(batch_env, "parse",
                    doc ? "batch must be a JSON array of request objects" : parse_error);
    if (doc->items.empty())
      return refuse(batch_env, "bad-request", "batch array must not be empty");
    if (doc->items.size() > kMaxBatchRequests)
      return refuse(batch_env, "bad-request",
                    "batch exceeds " + std::to_string(kMaxBatchRequests) + " requests");
    for (const util::JsonValue& item : doc->items) {
      protocol::Request req;
      protocol::Error err;
      if (!protocol::parse_request_value(item, &req, &err)) {
        errors_protocol.add(1);
        session.conn->write_line(protocol::render_error(protocol::envelope_of(req, shard), err));
      } else if (req.type == protocol::RequestType::kHello) {
        refuse(protocol::envelope_of(req, shard), "bad-request",
               "hello must be its own line, not a batch element");
      } else {
        submit(std::move(req), session);
      }
    }
    return true;
  }
};

Server::Server(const ServerConfig& config) : impl_(new Impl(config)) {}

Server::~Server() {
  request_drain();
  wait();
  delete impl_;
}

bool Server::start(std::string* error) { return impl_->listener.start(error); }

void Server::wait() {
  impl_->listener.wait([this] {
    impl_->dispatcher.drain();
    core::ResultCache::instance().flush();
  });
}

void Server::serve_stream(int in_fd, int out_fd) {
  impl_->listener.serve_stream(in_fd, out_fd);
  // EOF: answer everything already admitted, put its records on disk,
  // then hand the stream back.
  impl_->dispatcher.drain();
  core::ResultCache::instance().flush();
}

Listener& Server::listener() const { return impl_->listener; }

}  // namespace opm::serve
