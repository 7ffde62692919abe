// Tests for the declared-flag parser (src/base/flags.h): strict integer and
// double parsing, every rejection class the front end promises, positional
// arguments, --help, and the generated usage text.
#include "src/base/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace siloz {
namespace {

// Parses `args` (program name excluded) against `flags`.
Status ParseArgs(FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

// The error message of a failed parse, or "" on success.
std::string ErrorOf(FlagSet& flags, std::vector<const char*> args) {
  const Status status = ParseArgs(flags, std::move(args));
  if (status.ok()) {
    return "";
  }
  EXPECT_EQ(status.error().code, ErrorCode::kInvalidArgument);
  return status.error().message;
}

TEST(ParseUnsignedTest, AcceptsDecimalAndHex) {
  EXPECT_EQ(*ParseUnsigned("0"), 0u);
  EXPECT_EQ(*ParseUnsigned("42"), 42u);
  EXPECT_EQ(*ParseUnsigned("0x100000"), 0x100000u);
  EXPECT_EQ(*ParseUnsigned("0XfF"), 0xffu);
  EXPECT_EQ(*ParseUnsigned("18446744073709551615"), UINT64_MAX);
}

TEST(ParseUnsignedTest, RejectsGarbageEmptyNegativeAndOverflow) {
  for (const char* bad : {"abc", "1x", "", "-1", "+1", " 1", "1 ", "0x", "0x1g", "1.5", "4MiB",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUnsigned(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseUnsignedTest, EnforcesBounds) {
  EXPECT_FALSE(ParseUnsigned("0", 1).ok());
  EXPECT_EQ(*ParseUnsigned("1", 1), 1u);
  EXPECT_EQ(*ParseUnsigned("4294967295", 0, UINT32_MAX), UINT32_MAX);
  EXPECT_FALSE(ParseUnsigned("4294967296", 0, UINT32_MAX).ok());
}

TEST(FlagSetTest, FillsTypedDestinationsAndKeepsDefaults) {
  bool json = false;
  bool unused_bool = false;
  uint32_t threads = 0;
  uint64_t stride = 256;
  uint64_t seed = 7;
  double rate = 20.0;
  std::string platform = "skylake";
  FlagSet flags("prog");
  flags.Add("--json", &json, "json");
  flags.Add("--quiet", &unused_bool, "quiet");
  flags.Add("--threads", &threads, "workers");
  flags.Add("--stride BYTES", &stride, "stride");
  flags.Add("--seed", &seed, "seed");
  flags.Add("--rate", &rate, "rate");
  flags.Add("--platform", &platform, "platform");
  ASSERT_TRUE(ParseArgs(flags, {"--threads", "4", "--json", "--stride", "0x100000", "--rate",
                                "1.5e1", "--platform", "zen"})
                  .ok());
  EXPECT_TRUE(json);
  EXPECT_FALSE(unused_bool);
  EXPECT_EQ(threads, 4u);
  EXPECT_EQ(stride, 0x100000u);
  EXPECT_EQ(seed, 7u);  // not given: the default stands
  EXPECT_DOUBLE_EQ(rate, 15.0);
  EXPECT_EQ(platform, "zen");
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagSetTest, RejectsMalformedIntegers) {
  for (const char* bad : {"abc", "1x", "", "-1"}) {
    uint32_t threads = 3;
    FlagSet flags("prog");
    flags.Add("--threads", &threads, "workers");
    const std::string error = ErrorOf(flags, {"--threads", bad});
    EXPECT_NE(error.find("--threads"), std::string::npos) << error;
    EXPECT_NE(error.find(std::string("'") + bad + "'"), std::string::npos) << error;
    EXPECT_EQ(threads, 3u) << "a rejected value must not be stored";
  }
}

TEST(FlagSetTest, RejectsOverflowAndValuesBelowTheBound) {
  uint32_t threads = 0;
  uint64_t stride = 1;
  FlagSet flags("prog");
  flags.Add("--threads", &threads, "workers");
  flags.Add("--stride", &stride, "stride", {.min = 1});
  EXPECT_NE(ErrorOf(flags, {"--threads", "4294967296"}).find("out of range"), std::string::npos);

  FlagSet bounded("prog");
  bounded.Add("--stride", &stride, "stride", {.min = 1});
  EXPECT_NE(ErrorOf(bounded, {"--stride", "0"}).find(">= 1"), std::string::npos);
}

TEST(FlagSetTest, RejectsDoubleGarbage) {
  for (const char* bad : {"abc", "1.5x", "", "-1", "nan", "inf", "1e999"}) {
    double rate = 2.0;
    FlagSet flags("prog");
    flags.Add("--rate", &rate, "rate");
    EXPECT_NE(ErrorOf(flags, {"--rate", bad}).find("--rate"), std::string::npos) << bad;
    EXPECT_EQ(rate, 2.0);
  }
}

TEST(FlagSetTest, RejectsValueFlagGivenLastWithoutValue) {
  uint32_t threads = 0;
  bool json = false;
  FlagSet flags("prog");
  flags.Add("--json", &json, "json");
  flags.Add("--threads", &threads, "workers");
  EXPECT_EQ(ErrorOf(flags, {"--json", "--threads"}), "--threads: missing value");
}

TEST(FlagSetTest, RejectsUnknownAndRepeatedFlags) {
  uint32_t threads = 0;
  bool json = false;
  {
    FlagSet flags("prog");
    flags.Add("--threads", &threads, "workers");
    EXPECT_EQ(ErrorOf(flags, {"--threadz", "1"}), "unknown flag '--threadz'");
  }
  {
    FlagSet flags("prog");
    flags.Add("--threads", &threads, "workers");
    EXPECT_EQ(ErrorOf(flags, {"--threads", "1", "--threads", "2"}),
              "--threads given more than once");
  }
  {
    FlagSet flags("prog");
    flags.Add("--json", &json, "json");
    EXPECT_EQ(ErrorOf(flags, {"--json", "--json"}), "--json given more than once");
  }
}

TEST(FlagSetTest, RejectsNamesOutsideTheChoiceList) {
  std::string platform;
  FlagSet flags("prog");
  flags.Add("--platform", &platform, "platform", {.choices = {"skylake", "zen"}});
  EXPECT_EQ(ErrorOf(flags, {"--platform", "bogus"}),
            "--platform: expected one of skylake|zen, got 'bogus'");
  EXPECT_EQ(platform, "");
}

TEST(FlagSetTest, PositionalArgumentsBindInDeclarationOrder) {
  std::string figure;
  uint64_t address = 5;
  uint32_t threads = 0;
  FlagSet flags("prog");
  flags.Add("figure", &figure, "which figure", {.choices = {"fig4", "fig5"}, .required = true});
  flags.Add("address", &address, "an address");
  flags.Add("--threads", &threads, "workers");
  ASSERT_TRUE(ParseArgs(flags, {"--threads", "2", "fig5", "0x40"}).ok());
  EXPECT_EQ(figure, "fig5");
  EXPECT_EQ(address, 0x40u);
  EXPECT_EQ(threads, 2u);
}

TEST(FlagSetTest, PositionalErrors) {
  std::string figure;
  uint64_t address = 0;
  {
    FlagSet flags("prog");
    flags.Add("figure", &figure, "which figure", {.choices = {"fig4"}, .required = true});
    EXPECT_EQ(ErrorOf(flags, {}), "missing <figure>");
  }
  {
    FlagSet flags("prog");
    flags.Add("figure", &figure, "which figure", {.choices = {"fig4"}, .required = true});
    EXPECT_EQ(ErrorOf(flags, {"fig9"}), "figure: expected one of fig4, got 'fig9'");
  }
  {
    FlagSet flags("prog");
    flags.Add("address", &address, "an address");
    EXPECT_EQ(ErrorOf(flags, {"notanumber"}),
              "address: expected an unsigned integer, got 'notanumber'");
  }
  {
    FlagSet flags("prog");
    flags.Add("address", &address, "an address");
    EXPECT_EQ(ErrorOf(flags, {"1", "2"}), "unexpected argument '2'");
  }
}

TEST(FlagSetTest, HelpStopsParsing) {
  uint32_t threads = 0;
  FlagSet flags("prog");
  flags.Add("--threads", &threads, "workers");
  ASSERT_TRUE(ParseArgs(flags, {"--help", "--bogus"}).ok());
  EXPECT_TRUE(flags.help_requested());
  FlagSet short_flags("prog");
  ASSERT_TRUE(ParseArgs(short_flags, {"-h"}).ok());
  EXPECT_TRUE(short_flags.help_requested());
}

TEST(FlagSetTest, UsageListsEveryDeclaredFlag) {
  bool json = false;
  uint32_t threads = 0;
  double rate = 0.0;
  std::string platform;
  std::string figure;
  obs::ExportFiles exports;
  FlagSet flags("prog sub");
  flags.Add("figure", &figure, "which figure", {.choices = {"fig4", "fig5"}, .required = true});
  flags.Add("--json", &json, "machine-readable report");
  flags.Add("--threads", &threads, "workers (0 = auto,\n1 = serial)");
  flags.Add("--rate R", &rate, "arrivals per second");
  flags.Add("--platform", &platform, "registered platform", {.choices = {"skylake", "zen"}});
  flags.AddExports(&exports);
  const std::string usage = flags.Usage();
  EXPECT_EQ(usage.find("usage: prog sub <figure> [options]\n"), 0u) << usage;
  for (const char* line :
       {"  figure fig4|fig5", "which figure\n", "  --json ", "machine-readable report\n",
        "  --threads N ", "workers (0 = auto,\n", "1 = serial)\n", "  --rate R ",
        "  --platform skylake|zen ", "  --metrics-out FILE ", "  --trace-out FILE ",
        "  -h, --help "}) {
    EXPECT_NE(usage.find(line), std::string::npos) << "missing '" << line << "' in\n" << usage;
  }
}

TEST(FlagSetTest, ExportFlagsFillTheExportFiles) {
  obs::ExportFiles exports;
  FlagSet flags("prog");
  flags.AddExports(&exports);
  ASSERT_TRUE(ParseArgs(flags, {"--metrics-out", "m.json", "--trace-out", "t.json"}).ok());
  EXPECT_EQ(exports.metrics_out, "m.json");
  EXPECT_EQ(exports.trace_out, "t.json");
}

}  // namespace
}  // namespace siloz
