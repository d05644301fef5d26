#include "check.hpp"

#include <exception>
#include <vector>

#include "cograph/canonical.hpp"
#include "core/path_cover.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;

Verdict check_solve(const proto::WireResult& r, const Expect& e,
                    std::string* why) {
  const auto wrong = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return Verdict::Wrong;
  };
  if (!r.ok) {
    if (why != nullptr) *why = "result not ok";
    return Verdict::Failed;
  }
  if (r.vertex_count != e.n) {
    return wrong("vertex_count " + std::to_string(r.vertex_count) +
                 " != " + std::to_string(e.n));
  }
  if (static_cast<std::int64_t>(r.paths.size()) != e.paths) {
    return wrong("path count " + std::to_string(r.paths.size()) +
                 " != minimum " + std::to_string(e.paths));
  }
  if (r.has_verdicts && r.optimal_size != e.paths) {
    return wrong("optimal_size " + std::to_string(r.optimal_size) +
                 " != minimum " + std::to_string(e.paths));
  }
  std::vector<bool> seen(e.n, false);
  std::size_t total = 0;
  for (const auto& path : r.paths) {
    if (path.empty()) return wrong("empty path");
    for (const std::uint32_t v : path) {
      if (v >= e.n) return wrong("vertex " + std::to_string(v) + " >= n");
      if (seen[v]) return wrong("vertex " + std::to_string(v) + " twice");
      seen[v] = true;
      ++total;
    }
  }
  if (total != e.n) {
    return wrong("cover holds " + std::to_string(total) + " of " +
                 std::to_string(e.n) + " vertices");
  }
  return Verdict::Ok;
}

Verdict check_response(std::string_view payload, const Req& req,
                       std::span<const Expect> expects, std::string* why) {
  proto::Response resp;
  if (!proto::parse_response(payload, &resp)) {
    if (why != nullptr) *why = "undecodable response";
    return Verdict::Wrong;
  }
  const auto want_verb = static_cast<proto::Verb>(
      static_cast<std::uint8_t>(req.frame[kSeqOffset - 1]));
  if (resp.verb != want_verb) {
    if (why != nullptr) *why = "response verb does not match the request";
    return Verdict::Wrong;
  }
  if (resp.status != proto::Status::Ok) {
    if (why != nullptr) *why = proto::to_string(resp.status);
    return Verdict::Failed;
  }
  if (!req.batch) return check_solve(resp.result, expects[0], why);
  if (resp.batch.size() != expects.size()) {
    if (why != nullptr) *why = "batch slot count mismatch";
    return Verdict::Wrong;
  }
  Verdict worst = Verdict::Ok;
  for (std::size_t i = 0; i < expects.size(); ++i) {
    const auto& slot = resp.batch[i];
    const Verdict v =
        slot.status == proto::Status::Ok
            ? check_solve(slot.result, expects[i], why)
            : Verdict::Failed;
    if (v == Verdict::Wrong) return v;
    if (v == Verdict::Failed) worst = v;
  }
  return worst;
}

namespace {

bool validate_one(bool signature, std::string_view body,
                  const proto::WireResult& r, std::string* why) {
  try {
    const copath::cograph::Cotree tree =
        signature ? copath::cograph::decode_signature(body).tree
                  : copath::cograph::Cotree::parse(body);
    copath::core::PathCover cover;
    cover.paths.reserve(r.paths.size());
    for (const auto& p : r.paths) {
      cover.paths.emplace_back(p.begin(), p.end());
    }
    const auto report =
        copath::core::validate_path_cover(tree, cover, /*require_minimum=*/true);
    if (!report.ok && why != nullptr) *why = report.error;
    return report.ok;
  } catch (const std::exception& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

}  // namespace

bool validate_sample(std::string_view req_frame,
                     std::string_view resp_payload, std::string* why) {
  proto::Request req;
  proto::Response resp;
  if (req_frame.size() < proto::kFrameHeaderBytes ||
      !proto::parse_request(req_frame.substr(proto::kFrameHeaderBytes),
                            &req) ||
      !proto::parse_response(resp_payload, &resp) ||
      resp.status != proto::Status::Ok) {
    if (why != nullptr) *why = "sample does not decode";
    return false;
  }
  if (req.verb != proto::Verb::BatchSolve) {
    return validate_one(req.verb == proto::Verb::SolveSignature, req.body,
                        resp.result, why);
  }
  std::vector<proto::BatchItem> items;
  if (!proto::parse_batch_body(req.body, proto::kMaxBatchItems, &items,
                               why) ||
      items.size() != resp.batch.size()) {
    if (why != nullptr && why->empty()) *why = "batch sample mismatch";
    return false;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (resp.batch[i].status != proto::Status::Ok ||
        !validate_one(items[i].is_signature, items[i].body,
                      resp.batch[i].result, why)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
