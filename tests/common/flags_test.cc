#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace mrperf {
namespace {

/// Owns an argv for Flags: program name first, then `args`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, AcceptsBothSpellings) {
  Argv argv({"--threads=4", "--out", "/tmp/x.csv", "--min-ms", "2.5"});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.IntFlag("--threads", 0), 4);
  EXPECT_EQ(flags.StringFlag("--out"), "/tmp/x.csv");
  EXPECT_EQ(flags.DoubleFlag("--min-ms", 0.0), 2.5);
  EXPECT_TRUE(flags.Validate());
}

TEST(FlagsTest, AbsentFlagsFallBack) {
  Argv argv({});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.IntFlag("--port", 7077), 7077);
  EXPECT_EQ(flags.StringFlag("--host", "127.0.0.1"), "127.0.0.1");
  EXPECT_EQ(flags.StringFlag("--out"), "");
  EXPECT_FALSE(flags.BoolFlag("--verbose"));
  EXPECT_TRUE(flags.Validate());
}

TEST(FlagsTest, BareBoolFlag) {
  Argv argv({"--smoke"});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_TRUE(flags.BoolFlag("--smoke"));
  EXPECT_FALSE(flags.BoolFlag("--progress"));
  EXPECT_TRUE(flags.Validate());
}

TEST(FlagsTest, UnreadArgumentFailsValidation) {
  Argv argv({"--port=0", "--thread=8"});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.IntFlag("--port", 1), 0);
  EXPECT_EQ(flags.IntFlag("--threads", 3), 3);  // the typo is not a match
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.Validate());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown argument '--thread=8'"), std::string::npos)
      << err;
  EXPECT_EQ(err.find("--port"), std::string::npos) << err;
}

TEST(FlagsTest, ValueOfSpaceSpellingIsNotUnknown) {
  Argv argv({"--predictd", "./predictd", "--smoke"});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.StringFlag("--predictd", "default"), "./predictd");
  EXPECT_TRUE(flags.BoolFlag("--smoke"));
  testing::internal::CaptureStderr();
  EXPECT_TRUE(flags.Validate());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(FlagsTest, TrailingFlagWithoutValueIsUnknown) {
  Argv argv({"--port"});
  Flags flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.IntFlag("--port", 9), 9);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.Validate());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("'--port'"),
            std::string::npos);
}

}  // namespace
}  // namespace mrperf
