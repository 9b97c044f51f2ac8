#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <utility>

#include "cli/commands.hpp"
#include "harness/registry.hpp"
#include "serve/jsonv.hpp"

namespace nvms {
namespace {

/// Render a JSON scalar the way the CLI would have received it in argv.
/// Integral numbers drop the fraction ("12", not "12.0"); clients who
/// care about exact decimal text should send strings.
std::string scalar_to_string(const JsonValue& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_number()) {
    const double d = v.as_number();
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", d);
    }
    return buf;
  }
  return "";
}

/// Admission cost: the row's base cost times the cell count of each
/// list-valued option, so a sweep pays per grid cell.  Cells are counted
/// leniently from the CSV shape: a malformed CSV still costs its cell
/// count and then fails in the shared checked parser with the CLI's own
/// diagnostic.
std::uint64_t cost_of(const CommandSpec& spec, const ServeRequest& r) {
  std::uint64_t cost = spec.cost;
  for (const OptionSpec& o : spec.options) {
    if (o.kind != OptKind::kIntCsv && o.kind != OptKind::kEnumCsv) continue;
    const auto it = r.args.find(std::string(o.name));
    const std::string_view csv =
        it == r.args.end() || it->second.empty() ? o.def : it->second;
    cost *= 1 + static_cast<std::uint64_t>(
                    std::count(csv.begin(), csv.end(), ','));
  }
  return cost;
}

RequestParse reject(std::string id, std::string code, std::string error) {
  RequestParse out;
  out.code = std::move(code);
  out.error = std::move(error);
  out.id = std::move(id);
  return out;
}

}  // namespace

bool is_served_command(const std::string& cmd) {
  const CommandSpec* spec = find_command(cmd);
  return spec != nullptr && spec->served != Served::kNo;
}

bool is_forbidden_option(const std::string& key) {
  for (const CommandSpec& c : command_table()) {
    const OptionSpec* o = c.option(key);
    if (o != nullptr && o->kind == OptKind::kPath) return true;
  }
  return false;
}

RequestParse parse_request(const std::string& line) {
  const JsonParseResult doc = json_parse(line);
  if (!doc.value) {
    return reject("", "malformed", "not valid JSON: " + doc.error);
  }
  const JsonValue& v = *doc.value;
  if (!v.is_object()) {
    return reject("", "malformed", "request must be a JSON object");
  }

  // Recover the id first so even a rejected request echoes it.
  std::string id;
  if (const JsonValue* jid = v.find("id")) {
    if (jid->is_string() || jid->is_number() || jid->is_bool()) {
      id = scalar_to_string(*jid);
    } else if (!jid->is_null()) {
      return reject("", "malformed", "'id' must be a scalar");
    }
  }

  const JsonValue* jcmd = v.find("cmd");
  if (jcmd == nullptr || !jcmd->is_string() || jcmd->as_string().empty()) {
    return reject(id, "malformed", "missing required string field 'cmd'");
  }

  ServeRequest r;
  r.id = id;
  r.cmd = jcmd->as_string();
  if (!is_served_command(r.cmd)) {
    return reject(id, "forbidden",
                  "command '" + r.cmd +
                      "' is not served (record/replay touch host files; "
                      "use the one-shot CLI)");
  }

  if (const JsonValue* jargs = v.find("args")) {
    if (!jargs->is_object()) {
      return reject(id, "malformed", "'args' must be an object");
    }
    for (const auto& [key, value] : jargs->members()) {
      if (is_forbidden_option(key)) {
        return reject(id, "forbidden",
                      "option '" + key +
                          "' is not served (the daemon does not touch "
                          "host paths for clients)");
      }
      if (!value.is_string() && !value.is_number() && !value.is_bool()) {
        return reject(id, "malformed",
                      "args value for '" + key + "' must be a scalar");
      }
      r.args[key] = scalar_to_string(value);
    }
  }

  if (const JsonValue* jtarget = v.find("target")) {
    if (!jtarget->is_string()) {
      return reject(id, "malformed", "'target' must be a string");
    }
    r.positionals.push_back(jtarget->as_string());
  }
  if (const JsonValue* jtargets = v.find("targets")) {
    if (!jtargets->is_array()) {
      return reject(id, "malformed", "'targets' must be an array of strings");
    }
    for (const auto& t : jtargets->elements()) {
      if (!t.is_string()) {
        return reject(id, "malformed",
                      "'targets' must be an array of strings");
      }
      r.positionals.push_back(t.as_string());
    }
  }
  // Targets must be registered applications: the CLI also accepts trace
  // *files* here, but a network client must not probe host paths.
  for (const auto& p : r.positionals) {
    if (!is_registered_app(p)) {
      return reject(id, "forbidden",
                    "target '" + p +
                        "' is not a registered application (the service "
                        "does not read trace files; see `list`)");
    }
  }

  if (const JsonValue* jclient = v.find("client")) {
    if (!jclient->is_string() || jclient->as_string().empty()) {
      return reject(id, "malformed", "'client' must be a non-empty string");
    }
    r.client = jclient->as_string();
  }

  if (const JsonValue* jprio = v.find("priority")) {
    if (!jprio->is_number()) {
      return reject(id, "malformed", "'priority' must be a number");
    }
    const double p = jprio->as_number();
    r.priority = p < 0 ? 0 : (p > 9 ? 9 : static_cast<int>(p));
  }

  r.cost = cost_of(*find_command(r.cmd), r);
  RequestParse out;
  out.id = id;
  out.request = std::move(r);
  return out;
}

Options options_from(const ServeRequest& r) {
  return Options::from_map(r.args, r.positionals);
}

}  // namespace nvms
