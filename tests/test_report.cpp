// Tests for the reporting helpers (tables and ASCII charts).
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "report/chart.hpp"
#include "report/table.hpp"

namespace afdx::report {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Both data lines end with the value, aligned after padded names.
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, CsvQuotesCellsWithSeparatorsOrQuotes) {
  Table t({"name", "status"});
  t.add_row({"v1", "ok (a, b)"});
  t.add_row({"say \"hi\"", "line\nbreak"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "name,status\nv1,\"ok (a, b)\"\n\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Table, FmtFormatsDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
  EXPECT_EQ(fmt(-2.5, 1), "-2.5");
}

TEST(LineChart, RendersMarkersAndLegend) {
  Series s;
  s.name = "bound";
  s.marker = '*';
  for (double x = 1.0; x <= 10.0; x += 1.0) s.points.push_back({x, x * x});
  std::ostringstream os;
  line_chart(os, {s});
  const std::string out = os.str();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("bound"), std::string::npos);
  EXPECT_NE(out.find("1.0"), std::string::npos);
  EXPECT_NE(out.find("10.0"), std::string::npos);
}

TEST(LineChart, SupportsLogX) {
  Series s;
  s.name = "bag-sweep";
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) s.points.push_back({x, x});
  std::ostringstream os;
  line_chart(os, {s}, 64, 12, /*log_x=*/true);
  EXPECT_NE(os.str().find("(log x)"), std::string::npos);
}

TEST(LineChart, RejectsBadInput) {
  std::ostringstream os;
  EXPECT_THROW(line_chart(os, {}), Error);  // no points at all
  Series empty;
  empty.name = "empty";
  EXPECT_THROW(line_chart(os, {empty}), Error);
  Series neg;
  neg.points.push_back({-1.0, 1.0});
  EXPECT_THROW(line_chart(os, {neg}, 64, 12, /*log_x=*/true), Error);
  Series ok;
  ok.points.push_back({1.0, 1.0});
  EXPECT_THROW(line_chart(os, {ok}, 4, 2), Error);  // grid too small
}

TEST(LineChart, TwoSeriesBothVisible) {
  Series a, b;
  a.name = "traj";
  a.marker = 'T';
  b.name = "wcnc";
  b.marker = 'N';
  for (double x = 0.0; x < 5.0; ++x) {
    a.points.push_back({x, x});
    b.points.push_back({x, 2 * x + 1});
  }
  std::ostringstream os;
  line_chart(os, {a, b});
  EXPECT_NE(os.str().find('T'), std::string::npos);
  EXPECT_NE(os.str().find('N'), std::string::npos);
}

TEST(SignedHeatmap, ShadesSigns) {
  std::ostringstream os;
  signed_heatmap(os, {{5.0, -5.0}, {0.0, 2.0}}, {"row1", "row2"},
                 {"c1", "c2"});
  const std::string out = os.str();
  EXPECT_NE(out.find('#'), std::string::npos);   // strong positive
  EXPECT_NE(out.find('%'), std::string::npos);   // strong negative
  EXPECT_NE(out.find('0'), std::string::npos);   // near-zero
  EXPECT_NE(out.find("row1"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(SignedHeatmap, ValidatesShape) {
  std::ostringstream os;
  EXPECT_THROW(signed_heatmap(os, {}, {}, {}), Error);
  EXPECT_THROW(signed_heatmap(os, {{1.0}}, {"r1", "r2"}, {"c1"}), Error);
  EXPECT_THROW(signed_heatmap(os, {{1.0, 2.0}}, {"r1"}, {"c1"}), Error);
}

TEST(SignedHeatmap, AllZeroMatrixIsStable) {
  std::ostringstream os;
  signed_heatmap(os, {{0.0, 0.0}}, {"r"}, {"a", "b"});
  EXPECT_NE(os.str().find("00"), std::string::npos);
}

}  // namespace
}  // namespace afdx::report
