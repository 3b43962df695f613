/// \file client.hpp
/// Synchronous graph-in/prediction-out facade over serve::Server.
///
/// The server deals only in *encoded* queries (that is what batches
/// coalesce); a Client encodes each graph through Server::encoder (a handle
/// on one immutable basis) and submits the encode_packed output (the
/// representation the server queues).  Encoding is const and thread-safe
/// and Server::submit may be called from any thread, so one Client may be
/// shared by any number of threads.  Every
/// Client encodes a graph to the same bits the trainer would, so server
/// responses stay bit-identical to SnapshotPredictor::predict /
/// predict_batch on the same graphs.
///
/// A Client stays valid across Server::swap — the swap contract
/// (core::encoder_compatible) guarantees every future snapshot encodes
/// graphs identically.

#pragma once

#include <future>

#include "graph/graph.hpp"
#include "serve/server.hpp"

namespace graphhd::serve {

/// Serving front end: encodes graphs and submits them.  Thread-safe.
class Client {
 public:
  /// Shares `server`'s encoder.  The server must outlive the client.
  explicit Client(Server& server);

  /// Encode + submit + wait: the synchronous single-query round trip.
  [[nodiscard]] core::Prediction predict(const graph::Graph& graph);

  /// Encode + submit, returning the future (pipelined submission: a client
  /// can keep several requests in flight and let the server coalesce them).
  [[nodiscard]] std::future<core::Prediction> submit(const graph::Graph& graph);

  /// Encode + submit with a completion callback (see Server::Callback —
  /// runs on a worker thread, must not throw).
  void submit(const graph::Graph& graph, Server::Callback callback);

 private:
  Server& server_;
};

}  // namespace graphhd::serve
