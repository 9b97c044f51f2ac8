// nvmsimd request layer: one JSONL line → a validated ServeRequest that
// maps onto the exact Options accessors the one-shot CLI uses, so a
// query answered by the daemon is byte-identical on stdout to the same
// query run as `nvmsim <cmd> ...`.  Full protocol: docs/SERVICE.md.
//
// Request line (one JSON object, fields beyond these are rejected-free
// but ignored):
//   {"id": "r1",                  // echoed in the response (optional)
//    "cmd": "sweep",              // required; a served row of cli/commands
//    "target": "stream",          // one positional, or "targets": [...]
//    "args": {"threads": "12,24", "mode": "dram-only", "json": true},
//    "client": "alice",           // budget accounting key (default anon)
//    "priority": 2}               // 0 (urgent) .. 9 (batch), default 5
//
// Validation is deliberately two-stage.  parse_request rejects only what
// must never reach the executor: non-JSON lines, wrong shapes, commands
// outside the served set, server-side file options (a client must not
// make the daemon write or read host paths), and targets that are not
// registered applications.  Everything else — including a malformed
// "--threads 12,abc" — is passed through on purpose, so the diagnostic
// and exit code come from the same hardened cli/parse.hpp path the CLI
// uses and the response stays byte-identical to the one-shot run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli/options.hpp"

namespace nvms {

struct ServeRequest {
  std::string id;  ///< echoed verbatim ("" when the client sent none)
  std::string cmd;
  std::map<std::string, std::string> args;
  std::vector<std::string> positionals;
  std::string client = "anon";
  int priority = 5;        ///< 0 (urgent) .. 9 (batch)
  std::uint64_t cost = 1;  ///< admission cost in budget tokens
};

struct RequestParse {
  std::optional<ServeRequest> request;
  /// When !request: a machine-stable rejection code ("malformed" |
  /// "forbidden") plus a human-readable reason and the best-effort id
  /// recovered from the line for the error response.
  std::string code;
  std::string error;
  std::string id;
};

/// Commands the daemon serves: the command table's served rows.
/// record/replay are excluded by design: they read/write host files,
/// which a network client must not drive.
bool is_served_command(const std::string& cmd);

/// Option keys rejected in requests because they would make the daemon
/// touch host paths on a client's behalf: every option some row of the
/// command table declares with the host-path kind.
bool is_forbidden_option(const std::string& key);

/// Parse + validate one request line (max_bytes is enforced upstream by
/// the connection reader).  Never throws.
RequestParse parse_request(const std::string& line);

/// The CLI-equivalent option set for a validated request.
Options options_from(const ServeRequest& r);

}  // namespace nvms
