#include <gtest/gtest.h>

#include "gates/xml/xml.hpp"

namespace gates::xml {
namespace {

TEST(XmlParser, MinimalDocument) {
  auto doc = parse("<root/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->name(), "root");
  EXPECT_TRUE(doc->root->children().empty());
}

TEST(XmlParser, AttributesPreserveOrder) {
  auto doc = parse(R"(<e b="2" a="1" c="3"/>)");
  ASSERT_TRUE(doc.ok());
  const auto& attrs = doc->root->attrs();
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].first, "b");
  EXPECT_EQ(attrs[1].first, "a");
  EXPECT_EQ(attrs[2].first, "c");
  EXPECT_EQ(doc->root->attr("a").value(), "1");
}

TEST(XmlParser, SingleQuotedAttributes) {
  auto doc = parse("<e a='x y'/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->attr("a").value(), "x y");
}

TEST(XmlParser, NestedElementsAndText) {
  auto doc = parse("<a><b>hello</b><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->children().size(), 2u);
  EXPECT_EQ(doc->root->child("b")->trimmed_text(), "hello");
  EXPECT_NE(doc->root->find("c/d"), nullptr);
  EXPECT_EQ(doc->root->find("c/x"), nullptr);
}

TEST(XmlParser, PrologAndComments) {
  auto doc = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- a comment -->\n"
      "<root><!-- inner --><child/></root>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->children().size(), 1u);
}

TEST(XmlParser, EntityDecoding) {
  auto doc = parse("<e a=\"&lt;&gt;&amp;&quot;&apos;\">&lt;text&gt;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->attr("a").value(), "<>&\"'");
  EXPECT_EQ(doc->root->trimmed_text(), "<text>");
}

TEST(XmlParser, NumericCharacterReferences) {
  auto doc = parse("<e>&#65;&#x42;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->trimmed_text(), "AB");
}

TEST(XmlParser, NumericReferenceUtf8Encoding) {
  auto doc = parse("<e>&#233;</e>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->trimmed_text(), "\xC3\xA9");
}

TEST(XmlParser, Cdata) {
  auto doc = parse("<e><![CDATA[<not-parsed attr=\"1\">&amp;]]></e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "<not-parsed attr=\"1\">&amp;");
}

TEST(XmlParser, MixedTextConcatenates) {
  auto doc = parse("<e>one<child/>two</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "onetwo");
  EXPECT_EQ(doc->root->children().size(), 1u);
}

TEST(XmlParser, ChildrenNamedAndRequiredAttr) {
  auto doc = parse(R"(<e><p name="a"/><q/><p name="b"/></e>)");
  ASSERT_TRUE(doc.ok());
  auto ps = doc->root->children_named("p");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[1]->required_attr("name").value(), "b");
  EXPECT_FALSE(ps[0]->required_attr("missing").ok());
}

TEST(XmlParser, WhitespaceInTagsTolerated) {
  auto doc = parse("<e  a = \"1\"  ></e >");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->attr("a").value(), "1");
}

struct MalformedCase {
  const char* name;
  const char* input;
};

// Prints the case name, so the test names ctest discovers are the same on
// every build (the default printer dumps the struct's pointer bytes).
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class XmlParserMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(XmlParserMalformed, IsRejected) {
  auto doc = parse(GetParam().input);
  EXPECT_FALSE(doc.ok()) << GetParam().input;
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserMalformed,
    ::testing::Values(
        MalformedCase{"empty", ""},
        MalformedCase{"text_only", "just text"},
        MalformedCase{"unclosed_root", "<root>"},
        MalformedCase{"mismatched_close", "<a><b></a></b>"},
        MalformedCase{"unterminated_comment", "<a><!-- oops</a>"},
        MalformedCase{"unterminated_cdata", "<a><![CDATA[x</a>"},
        MalformedCase{"unterminated_attr", "<a b=\"1/>"},
        MalformedCase{"unquoted_attr", "<a b=1/>"},
        MalformedCase{"missing_equals", "<a b \"1\"/>"},
        MalformedCase{"duplicate_attr", "<a b=\"1\" b=\"2\"/>"},
        MalformedCase{"two_roots", "<a/><b/>"},
        MalformedCase{"trailing_garbage", "<a/>junk"},
        MalformedCase{"bad_entity", "<a>&bogus;</a>"},
        MalformedCase{"unterminated_entity", "<a>&lt</a>"},
        MalformedCase{"bad_numeric_entity", "<a>&#xZZ;</a>"},
        MalformedCase{"lt_in_attr", "<a b=\"<\"/>"},
        MalformedCase{"bad_name_start", "<1a/>"},
        MalformedCase{"stray_close", "</a>"}),
    [](const auto& info) { return info.param.name; });

TEST(XmlParser, ReportsErrorLocation) {
  ParseError error;
  auto doc = parse_with_location("<a>\n  <b>\n</a>", &error);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(error.line, 3);
  EXPECT_FALSE(error.to_string().empty());
}

TEST(XmlParser, DeeplyNestedDocument) {
  std::string input;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) input += "<n>";
  for (int i = 0; i < depth; ++i) input += "</n>";
  auto doc = parse(input);
  ASSERT_TRUE(doc.ok());
  const Element* cur = doc->root.get();
  int levels = 1;
  while ((cur = cur->child("n")) != nullptr) ++levels;
  EXPECT_EQ(levels, depth);
}

}  // namespace
}  // namespace gates::xml
