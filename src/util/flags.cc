#include "util/flags.h"

#include <cassert>

#include "util/string_util.h"

namespace hinpriv::util {

void FlagParser::Define(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  Flag f;
  f.value = default_value;
  f.default_value = default_value;
  f.help = help;
  flags_[name] = std::move(f);
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: '" +
                                     std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      // "--name value" form, unless the next token is another flag or absent.
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      // Accept "--no-shared-cache" for a flag defined as "no_shared_cache":
      // hyphens and underscores are interchangeable on the command line.
      std::string normalized = name;
      for (char& c : normalized) {
        if (c == '-') c = '_';
      }
      it = flags_.find(normalized);
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    it->second.value = value;
  }
  return Status::OK();
}

std::string FlagParser::Usage(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (default: " + flag.default_value + ")\n      " +
           flag.help + "\n";
  }
  return out;
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  return it->second.value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  auto parsed = ParseInt64(it->second.value);
  if (parsed.ok()) return parsed.value();
  auto fallback = ParseInt64(it->second.default_value);
  return fallback.ok() ? fallback.value() : 0;
}

double FlagParser::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  auto parsed = ParseDouble(it->second.value);
  if (parsed.ok()) return parsed.value();
  auto fallback = ParseDouble(it->second.default_value);
  return fallback.ok() ? fallback.value() : 0.0;
}

bool FlagParser::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  const std::string& v = it->second.value;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace hinpriv::util
