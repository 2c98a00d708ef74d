#include "graph/property.h"

#include <gtest/gtest.h>

#include "graph/property_table.h"

namespace gs {
namespace {

TEST(PropertyValueTest, TypesAndAccessors) {
  const PropertyValue null_value;
  const PropertyValue int_value(int64_t{5});
  const PropertyValue double_value(2.5);
  const PropertyValue string_value("hi");
  const PropertyValue bool_value(true);
  EXPECT_TRUE(null_value.is_null());
  EXPECT_EQ(int_value.AsInt(), 5);
  EXPECT_EQ(double_value.AsDouble(), 2.5);
  EXPECT_EQ(string_value.AsString(), "hi");
  EXPECT_TRUE(bool_value.AsBool());
}

TEST(PropertyValueTest, NumericCrossTypeComparison) {
  PropertyValue i(int64_t{3});
  PropertyValue d(3.0);
  PropertyValue bigger(4.5);
  EXPECT_EQ(i.Compare(d), 0);
  EXPECT_EQ(i.Compare(bigger), -1);
  EXPECT_EQ(bigger.Compare(i), 1);
}

TEST(PropertyValueTest, StringComparison) {
  PropertyValue a("apple"), b("banana");
  EXPECT_EQ(a.Compare(b), -1);
  EXPECT_EQ(b.Compare(a), 1);
  EXPECT_EQ(a.Compare(PropertyValue("apple")), 0);
}

TEST(PropertyValueTest, IncomparableTypesReturnNullopt) {
  EXPECT_FALSE(PropertyValue("x").Compare(PropertyValue(int64_t{1})));
  EXPECT_FALSE(PropertyValue().Compare(PropertyValue(int64_t{1})));
  EXPECT_FALSE(PropertyValue(true).Compare(PropertyValue("t")));
}

TEST(PropertyValueTest, ParseRoundTrip) {
  auto i = PropertyValue::Parse("42", PropertyType::kInt);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->AsInt(), 42);
  auto d = PropertyValue::Parse("2.5", PropertyType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->AsDouble(), 2.5);
  auto b = PropertyValue::Parse("true", PropertyType::kBool);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->AsBool());
  auto s = PropertyValue::Parse("NY", PropertyType::kString);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->AsString(), "NY");
  // Empty cell parses to null regardless of type.
  auto n = PropertyValue::Parse("", PropertyType::kInt);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->is_null());
}

TEST(PropertyValueTest, ParseErrors) {
  EXPECT_FALSE(PropertyValue::Parse("4x", PropertyType::kInt).ok());
  EXPECT_FALSE(PropertyValue::Parse("yes", PropertyType::kBool).ok());
  EXPECT_FALSE(PropertyValue::Parse("1.2.3", PropertyType::kDouble).ok());
}

TEST(PropertyTypeTest, ParseTypeNames) {
  EXPECT_EQ(*ParsePropertyType("int"), PropertyType::kInt);
  EXPECT_EQ(*ParsePropertyType("STRING"), PropertyType::kString);
  EXPECT_EQ(*ParsePropertyType("bool"), PropertyType::kBool);
  EXPECT_EQ(*ParsePropertyType("double"), PropertyType::kDouble);
  EXPECT_FALSE(ParsePropertyType("blob").ok());
}

TEST(PropertyTableTest, AppendAndGet) {
  PropertyTable t;
  ASSERT_TRUE(t.AddColumn("year", PropertyType::kInt).ok());
  ASSERT_TRUE(t.AddColumn("city", PropertyType::kString).ok());
  ASSERT_TRUE(
      t.AppendRow({PropertyValue(int64_t{2019}), PropertyValue("LA")}).ok());
  ASSERT_TRUE(t.AppendRow({PropertyValue::Null(), PropertyValue("NY")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0).AsInt(), 2019);
  EXPECT_TRUE(t.Get(1, 0).is_null());
  EXPECT_EQ(t.GetByName(1, "city")->AsString(), "NY");
}

TEST(PropertyTableTest, SchemaErrors) {
  PropertyTable t;
  ASSERT_TRUE(t.AddColumn("a", PropertyType::kInt).ok());
  EXPECT_EQ(t.AddColumn("a", PropertyType::kInt).code(),
            StatusCode::kAlreadyExists);
  // Wrong arity.
  EXPECT_FALSE(t.AppendRow({}).ok());
  // Wrong type.
  EXPECT_FALSE(t.AppendRow({PropertyValue("str")}).ok());
  // Adding a column after rows is rejected.
  ASSERT_TRUE(t.AppendRow({PropertyValue(int64_t{1})}).ok());
  EXPECT_EQ(t.AddColumn("b", PropertyType::kInt).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.ColumnIndex("zz").status().code(), StatusCode::kNotFound);
}

TEST(PropertyTableTest, IntIntoDoubleColumnCoerces) {
  PropertyTable t;
  ASSERT_TRUE(t.AddColumn("w", PropertyType::kDouble).ok());
  ASSERT_TRUE(t.AppendRow({PropertyValue(int64_t{3})}).ok());
  EXPECT_EQ(t.Get(0, 0).AsDouble(), 3.0);
}

}  // namespace
}  // namespace gs
