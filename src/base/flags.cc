#include "src/base/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace siloz {
namespace {

// Help text in the generated usage starts in this column.
constexpr size_t kHelpColumn = 34;

Error Invalid(std::string message) {
  return MakeError(ErrorCode::kInvalidArgument, std::move(message));
}

std::string Quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

Result<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < 0.0) {
    return Invalid("expected a non-negative number, got " + Quoted(text));
  }
  return value;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : "|") + item;
  }
  return out;
}

}  // namespace

Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t min, uint64_t max) {
  std::string_view digits = text;
  int base = 10;
  if (digits.starts_with("0x") || digits.starts_with("0X")) {
    digits.remove_prefix(2);
    base = 16;
  }
  uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value, base);
  if (ec == std::errc::result_out_of_range || (ec == std::errc() && ptr == end && value > max)) {
    return Invalid("value " + Quoted(text) + " is out of range (max " + std::to_string(max) + ")");
  }
  if (ec != std::errc() || ptr != end) {
    return Invalid("expected an unsigned integer, got " + Quoted(text));
  }
  if (value < min) {
    return Invalid("expected an integer >= " + std::to_string(min) + ", got " + Quoted(text));
  }
  return value;
}

Status FlagSet::Arg::Assign(std::string_view text) {
  Status status;
  const auto store = [&status](const auto& parsed, auto* out) {
    if (parsed.ok()) {
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*parsed);
    } else {
      status = parsed.error();
    }
  };
  if (bool** flag = std::get_if<bool*>(&dest)) {
    **flag = true;
  } else if (uint32_t** u32 = std::get_if<uint32_t*>(&dest)) {
    store(ParseUnsigned(text, rules.min, std::numeric_limits<uint32_t>::max()), *u32);
  } else if (uint64_t** u64 = std::get_if<uint64_t*>(&dest)) {
    store(ParseUnsigned(text, rules.min), *u64);
  } else if (double** real = std::get_if<double*>(&dest)) {
    store(ParseDouble(text), *real);
  } else if (!rules.choices.empty() &&
             std::find(rules.choices.begin(), rules.choices.end(), text) == rules.choices.end()) {
    status = Invalid("expected one of " + Join(rules.choices) + ", got " + Quoted(text));
  } else {
    *std::get<std::string*>(dest) = text;
  }
  return status.ok() ? status : Invalid(name + ": " + status.error().message);
}

void FlagSet::Add(std::string spec, Dest dest, std::string help, FlagRules rules) {
  const size_t space = spec.find(' ');
  std::string placeholder = space == std::string::npos ? "" : spec.substr(space + 1);
  if (placeholder.empty() && !rules.choices.empty()) {
    placeholder = Join(rules.choices);
  } else if (placeholder.empty() && spec[0] == '-' && !std::holds_alternative<bool*>(dest)) {
    placeholder = std::holds_alternative<std::string*>(dest) ? "VALUE" : "N";
  }
  args_.push_back(Arg{.name = spec.substr(0, space),
                      .placeholder = std::move(placeholder),
                      .help = std::move(help),
                      .dest = dest,
                      .rules = std::move(rules)});
}

void FlagSet::AddExports(obs::ExportFiles* files) {
  Add("--metrics-out FILE", &files->metrics_out, "write the metrics registry as JSON");
  Add("--trace-out FILE", &files->trace_out, "record + write a Chrome trace-event log");
  exports_ = files;
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  size_t next_positional = 0;  // where the search for the next positional resumes
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token == "--help" || token == "-h") {
      help_ = true;
      return Status::Ok();
    }
    Arg* arg = nullptr;
    std::string_view value = token;
    if (token.starts_with('-')) {
      const auto found = std::find_if(args_.begin(), args_.end(),
                                      [&](const Arg& known) { return known.name == token; });
      if (found == args_.end()) {
        return Invalid("unknown flag " + Quoted(token));
      }
      arg = &*found;
      if (arg->seen) {
        return Invalid(std::string(token) + " given more than once");
      }
      if (!std::holds_alternative<bool*>(arg->dest)) {
        if (i + 1 == argc) {
          return Invalid(std::string(token) + ": missing value");
        }
        value = argv[++i];
      }
    } else {
      while (next_positional < args_.size() && !args_[next_positional].positional()) {
        ++next_positional;
      }
      if (next_positional == args_.size()) {
        return Invalid("unexpected argument " + Quoted(token));
      }
      arg = &args_[next_positional++];
    }
    arg->seen = true;
    SILOZ_RETURN_IF_ERROR(arg->Assign(value));
  }
  for (const Arg& arg : args_) {
    if (arg.rules.required && !arg.seen) {
      return Invalid("missing <" + arg.name + ">");
    }
  }
  return Status::Ok();
}

std::string FlagSet::Usage() const {
  std::string out = "usage: " + program_;
  for (const Arg& arg : args_) {
    if (arg.positional()) {
      out += arg.rules.required ? " <" + arg.name + ">" : " [" + arg.name + "]";
    }
  }
  out += " [options]\n";
  const auto line = [&out](const std::string& left, std::string_view help) {
    // A left column too wide for the help column gets a line of its own.
    out += "  " + left;
    out += left.size() + 4 > kHelpColumn ? "\n" + std::string(kHelpColumn, ' ')
                                         : std::string(kHelpColumn - 2 - left.size(), ' ');
    for (const char c : help) {
      out += c;
      if (c == '\n') {
        out.append(kHelpColumn, ' ');
      }
    }
    out += '\n';
  };
  for (const bool positional : {true, false}) {  // positionals first
    for (const Arg& arg : args_) {
      if (arg.positional() == positional) {
        line(arg.placeholder.empty() ? arg.name : arg.name + " " + arg.placeholder, arg.help);
      }
    }
  }
  line("-h, --help", "print this help and exit");
  return out;
}

void FlagSet::ParseOrExit(int argc, const char* const* argv, int usage_exit) {
  const Status status = Parse(argc, argv);
  if (help_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), status.error().message.c_str(),
                 Usage().c_str());
    std::exit(usage_exit);
  }
  if (exports_ != nullptr && !exports_->trace_out.empty()) {
    obs::Tracer::Global().Enable();
  }
}

}  // namespace siloz
