#include "serve/client.hpp"

#include <utility>

namespace graphhd::serve {

Client::Client(Server& server) : server_(server) {}

core::Prediction Client::predict(const graph::Graph& graph) { return submit(graph).get(); }

std::future<core::Prediction> Client::submit(const graph::Graph& graph) {
  return server_.submit(server_.encoder().encode_packed(graph));
}

void Client::submit(const graph::Graph& graph, Server::Callback callback) {
  server_.submit(server_.encoder().encode_packed(graph), std::move(callback));
}

}  // namespace graphhd::serve
