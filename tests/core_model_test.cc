// Unit tests for the SIMBA subscription layer's data model: address
// books, delivery modes (Figure 4), classifier, category map, alert
// log, profiles and subscriptions.
#include <gtest/gtest.h>

#include "core/address_book.h"
#include "core/alert.h"
#include "core/alert_log.h"
#include "core/category_map.h"
#include "core/classifier.h"
#include "core/delivery_mode.h"
#include "core/profile.h"

namespace simba::core {
namespace {

// ---------------------------------------------------------------------------
// AddressBook
// ---------------------------------------------------------------------------

AddressBook sample_book() {
  AddressBook book("alice");
  book.put(Address{"MSN IM", CommType::kIm, "alice", true});
  book.put(Address{"Cell SMS", CommType::kSms,
                   "4255550100@sms.example.net", true});
  book.put(Address{"Work email", CommType::kEmail, "alice@work.example", true});
  return book;
}

TEST(AddressBookTest, PutFindRemove) {
  AddressBook book = sample_book();
  ASSERT_NE(book.find("MSN IM"), nullptr);
  EXPECT_EQ(book.find("MSN IM")->value, "alice");
  EXPECT_EQ(book.find("missing"), nullptr);
  EXPECT_TRUE(book.remove("Cell SMS").ok());
  EXPECT_FALSE(book.remove("Cell SMS").ok());
  EXPECT_EQ(book.all().size(), 2u);
}

TEST(AddressBookTest, PutReplacesSameFriendlyName) {
  AddressBook book = sample_book();
  book.put(Address{"MSN IM", CommType::kIm, "alice2", true});
  EXPECT_EQ(book.all().size(), 3u);
  EXPECT_EQ(book.find("MSN IM")->value, "alice2");
}

TEST(AddressBookTest, EnableDisable) {
  AddressBook book = sample_book();
  EXPECT_TRUE(book.enabled("Cell SMS"));
  ASSERT_TRUE(book.set_enabled("Cell SMS", false).ok());
  EXPECT_FALSE(book.enabled("Cell SMS"));
  EXPECT_FALSE(book.set_enabled("nope", false).ok());
  EXPECT_FALSE(book.enabled("nope"));
}

TEST(AddressBookTest, OfTypeFilters) {
  AddressBook book = sample_book();
  EXPECT_EQ(book.of_type(CommType::kIm).size(), 1u);
  EXPECT_EQ(book.of_type(CommType::kEmail).size(), 1u);
}

TEST(AddressBookTest, XmlRoundTrip) {
  AddressBook book = sample_book();
  book.set_enabled("Cell SMS", false);
  const std::string xml_text = book.to_xml();
  auto parsed = AddressBook::from_xml(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().user(), "alice");
  EXPECT_EQ(parsed.value().all().size(), 3u);
  EXPECT_FALSE(parsed.value().enabled("Cell SMS"));
  EXPECT_TRUE(parsed.value().enabled("MSN IM"));
  EXPECT_EQ(parsed.value().find("Work email")->type, CommType::kEmail);
}

TEST(AddressBookTest, FromXmlRejectsMalformed) {
  EXPECT_FALSE(AddressBook::from_xml("<wrong/>").ok());
  EXPECT_FALSE(
      AddressBook::from_xml(R"(<addresses><address type="IM"/></addresses>)")
          .ok());  // missing name
  EXPECT_FALSE(AddressBook::from_xml(
                   R"(<addresses><address name="x" type="FAX" value="v"/></addresses>)")
                   .ok());  // bad type
  EXPECT_FALSE(AddressBook::from_xml(
                   R"(<addresses><address name="x" type="IM"/></addresses>)")
                   .ok());  // missing value
}

TEST(CommTypeTest, Parsing) {
  EXPECT_TRUE(comm_type_from_string("im").ok());
  EXPECT_TRUE(comm_type_from_string("EM").ok());
  EXPECT_TRUE(comm_type_from_string("email").ok());
  EXPECT_TRUE(comm_type_from_string("SMS").ok());
  EXPECT_FALSE(comm_type_from_string("pager").ok());
  EXPECT_STREQ(to_string(CommType::kIm), "IM");
}

// ---------------------------------------------------------------------------
// DeliveryMode (Figure 4)
// ---------------------------------------------------------------------------

TEST(DeliveryModeTest, SampleUrgentModeMatchesFigure4) {
  const DeliveryMode mode = DeliveryMode::sample_urgent_mode();
  EXPECT_EQ(mode.name(), "Urgent");
  ASSERT_EQ(mode.blocks().size(), 2u);  // two communication blocks
  const DeliveryBlock& first = mode.blocks()[0];
  ASSERT_EQ(first.actions.size(), 2u);
  EXPECT_EQ(first.actions[0].address_name, "MSN IM");
  EXPECT_TRUE(first.actions[0].require_ack);
  EXPECT_EQ(first.actions[1].address_name, "Cell SMS");
  const DeliveryBlock& second = mode.blocks()[1];
  ASSERT_EQ(second.actions.size(), 2u);
  EXPECT_FALSE(second.actions[0].require_ack);
}

TEST(DeliveryModeTest, XmlRoundTrip) {
  const DeliveryMode mode = DeliveryMode::sample_urgent_mode();
  auto parsed = DeliveryMode::from_xml(mode.to_xml());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().name(), "Urgent");
  ASSERT_EQ(parsed.value().blocks().size(), 2u);
  EXPECT_EQ(parsed.value().blocks()[0].timeout, seconds(45));
  EXPECT_TRUE(parsed.value().blocks()[0].actions[0].require_ack);
}

TEST(DeliveryModeTest, ParseTimeoutVariants) {
  auto with_suffix = DeliveryMode::from_xml(
      R"(<deliveryMode name="m"><block timeout="90s"><action address="A"/></block></deliveryMode>)");
  ASSERT_TRUE(with_suffix.ok());
  EXPECT_EQ(with_suffix.value().blocks()[0].timeout, seconds(90));
  auto bare = DeliveryMode::from_xml(
      R"(<deliveryMode name="m"><block timeout="15"><action address="A"/></block></deliveryMode>)");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().blocks()[0].timeout, seconds(15));
  auto dflt = DeliveryMode::from_xml(
      R"(<deliveryMode name="m"><block><action address="A"/></block></deliveryMode>)");
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ(dflt.value().blocks()[0].timeout, seconds(30));
}

TEST(DeliveryModeTest, ParseRejectsDegenerateDocuments) {
  EXPECT_FALSE(DeliveryMode::from_xml("<deliveryMode name=\"m\"/>").ok());
  EXPECT_FALSE(DeliveryMode::from_xml(
                   R"(<deliveryMode name="m"><block/></deliveryMode>)")
                   .ok());  // block with no actions
  EXPECT_FALSE(DeliveryMode::from_xml(
                   R"(<deliveryMode name="m"><block timeout="-5s"><action address="A"/></block></deliveryMode>)")
                   .ok());
  EXPECT_FALSE(DeliveryMode::from_xml(
                   R"(<deliveryMode name="m"><block timeout="xyz"><action address="A"/></block></deliveryMode>)")
                   .ok());
  EXPECT_FALSE(DeliveryMode::from_xml(
                   R"(<deliveryMode name="m"><block><action/></block></deliveryMode>)")
                   .ok());  // action without address
  EXPECT_FALSE(DeliveryMode::from_xml("<other/>").ok());
}

// ---------------------------------------------------------------------------
// Alert headers round trip
// ---------------------------------------------------------------------------

TEST(AlertTest, HeaderRoundTrip) {
  Alert a;
  a.source = "aladdin";
  a.native_category = "Sensor ON";
  a.subject = "Basement Water Sensor ON";
  a.body = "water!";
  a.high_importance = true;
  a.created_at = kTimeZero + seconds(5);
  a.id = "aladdin-1";
  a.attributes["device"] = "device.basement_water";
  const auto headers = alert_headers(a);
  const Alert b = alert_from_headers(headers, a.body);
  EXPECT_EQ(b.source, a.source);
  EXPECT_EQ(b.native_category, a.native_category);
  EXPECT_EQ(b.subject, a.subject);
  EXPECT_EQ(b.body, a.body);
  EXPECT_EQ(b.high_importance, true);
  EXPECT_EQ(b.created_at, a.created_at);
  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(b.attributes.at("device"), "device.basement_water");
}

TEST(AlertTest, FromHeadersTolerant) {
  const Alert a = alert_from_headers({}, "body only");
  EXPECT_EQ(a.body, "body only");
  EXPECT_TRUE(a.id.empty());
  EXPECT_FALSE(a.high_importance);
}

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

AlertClassifier sample_classifier() {
  AlertClassifier classifier;
  classifier.add_rule(SourceRule{"aladdin", KeywordLocation::kNativeCategory,
                                 {}, "email home gateway"});
  classifier.add_rule(SourceRule{
      "alerts@yahoo.example", KeywordLocation::kSenderName,
      {"Stocks", "Weather", "Sports"}, "http://alerts.yahoo.example/manage"});
  classifier.add_rule(SourceRule{"mobile@msn.example",
                                 KeywordLocation::kSubject,
                                 {"Financial news", "Lottery"},
                                 "http://mobile.msn.example"});
  return classifier;
}

TEST(ClassifierTest, NativeCategoryPassThrough) {
  AlertClassifier c = sample_classifier();
  Alert a;
  a.source = "aladdin";
  a.native_category = "Sensor ON";
  const auto keyword = c.classify(a);
  ASSERT_TRUE(keyword.has_value());
  EXPECT_EQ(*keyword, "Sensor ON");
}

TEST(ClassifierTest, SenderNameKeywordExtraction) {
  AlertClassifier c = sample_classifier();
  Alert a;
  a.source = "alerts@yahoo.example";
  a.attributes["email_from"] = "Yahoo! Alerts - Stocks <alerts@yahoo.example>";
  const auto keyword = c.classify(a);
  ASSERT_TRUE(keyword.has_value());
  EXPECT_EQ(*keyword, "Stocks");
}

TEST(ClassifierTest, SubjectKeywordExtraction) {
  AlertClassifier c = sample_classifier();
  Alert a;
  a.source = "mobile@msn.example";
  a.subject = "MSN Mobile: financial news update for you";
  const auto keyword = c.classify(a);
  ASSERT_TRUE(keyword.has_value());
  EXPECT_EQ(*keyword, "Financial news");
}

TEST(ClassifierTest, UnacceptedSourceRejected) {
  AlertClassifier c = sample_classifier();
  Alert a;
  a.source = "spam@random.example";
  a.native_category = "Anything";
  EXPECT_FALSE(c.classify(a).has_value());
  EXPECT_FALSE(c.accepts("spam@random.example"));
  EXPECT_EQ(c.stats().get("rejected_source"), 1);
}

TEST(ClassifierTest, NoMatchingKeywordRejected) {
  AlertClassifier c = sample_classifier();
  Alert a;
  a.source = "mobile@msn.example";
  a.subject = "something unrecognizable";
  EXPECT_FALSE(c.classify(a).has_value());
  EXPECT_EQ(c.stats().get("no_keyword"), 1);
}

TEST(ClassifierTest, SourceMatchingIsCaseInsensitive) {
  AlertClassifier c = sample_classifier();
  EXPECT_TRUE(c.accepts("ALERTS@YAHOO.EXAMPLE"));
}

TEST(ClassifierTest, ServiceListMaintained) {
  AlertClassifier c = sample_classifier();
  const auto services = c.services();
  ASSERT_EQ(services.size(), 3u);
  EXPECT_EQ(services[1].unsubscribe_info, "http://alerts.yahoo.example/manage");
}

TEST(ClassifierTest, AddRuleReplacesSameSource) {
  AlertClassifier c = sample_classifier();
  c.add_rule(SourceRule{"aladdin", KeywordLocation::kSubject, {"X"}, ""});
  EXPECT_EQ(c.services().size(), 3u);
  EXPECT_EQ(c.rule_for("aladdin")->location, KeywordLocation::kSubject);
}

// ---------------------------------------------------------------------------
// CategoryMap
// ---------------------------------------------------------------------------

TEST(CategoryMapTest, AggregationManyKeywordsToOneCategory) {
  CategoryMap map;
  map.map_keyword("Stocks", "Investment");
  map.map_keyword("Financial news", "Investment");
  map.map_keyword("Earnings reports", "Investment");
  EXPECT_EQ(map.category_for("stocks").value_or(""), "Investment");
  EXPECT_EQ(map.category_for("FINANCIAL NEWS").value_or(""), "Investment");
  EXPECT_FALSE(map.category_for("Weather").has_value());
  EXPECT_EQ(map.keywords_of("Investment").size(), 3u);
}

TEST(CategoryMapTest, SubCategorizationSensorOnOff) {
  // The paper's filtering example: ON and OFF to different categories
  // so they can carry different delivery modes.
  CategoryMap map;
  map.map_keyword("Sensor ON", "Home Emergency");
  map.map_keyword("Sensor OFF", "Home Routine");
  EXPECT_EQ(*map.category_for("Sensor ON"), "Home Emergency");
  EXPECT_EQ(*map.category_for("Sensor OFF"), "Home Routine");
}

TEST(CategoryMapTest, EnableDisable) {
  CategoryMap map;
  EXPECT_TRUE(map.category_enabled("News"));
  map.set_category_enabled("News", false);
  EXPECT_FALSE(map.deliverable("News", kTimeZero));
  map.set_category_enabled("News", true);
  EXPECT_TRUE(map.deliverable("News", kTimeZero));
}

TEST(CategoryMapTest, DeliveryWindow) {
  CategoryMap map;
  map.set_delivery_window("News",
                          DailyWindow{TimeOfDay::at(9, 0), TimeOfDay::at(17, 0)});
  EXPECT_TRUE(map.deliverable("News", kTimeZero + hours(12)));
  EXPECT_FALSE(map.deliverable("News", kTimeZero + hours(3)));
  map.clear_delivery_window("News");
  EXPECT_TRUE(map.deliverable("News", kTimeZero + hours(3)));
}

TEST(CategoryMapTest, RemapReplaces) {
  CategoryMap map;
  map.map_keyword("Stocks", "Investment");
  map.map_keyword("Stocks", "Money");
  EXPECT_EQ(*map.category_for("Stocks"), "Money");
}

// ---------------------------------------------------------------------------
// AlertLog
// ---------------------------------------------------------------------------

Alert make_alert(const std::string& id) {
  Alert a;
  a.id = id;
  // std::string rvalue: sidesteps a GCC 12 -Werror=restrict false
  // positive on the const char* assign path at -O2.
  a.subject = std::string("s");
  return a;
}

TEST(AlertLogTest, AppendMarkRecoverCycle) {
  AlertLog log;
  EXPECT_TRUE(log.append(make_alert("a"), kTimeZero));
  EXPECT_TRUE(log.append(make_alert("b"), kTimeZero + seconds(1)));
  EXPECT_TRUE(log.contains("a"));
  EXPECT_FALSE(log.processed("a"));
  ASSERT_EQ(log.unprocessed().size(), 2u);
  log.mark_processed("a", kTimeZero + seconds(2));
  EXPECT_TRUE(log.processed("a"));
  ASSERT_EQ(log.unprocessed().size(), 1u);
  EXPECT_EQ(log.unprocessed()[0].id, "b");
}

TEST(AlertLogTest, DuplicateAppendReportsFalse) {
  AlertLog log;
  EXPECT_TRUE(log.append(make_alert("a"), kTimeZero));
  EXPECT_FALSE(log.append(make_alert("a"), kTimeZero + seconds(1)));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.stats().get("duplicate_appends"), 1);
}

TEST(AlertLogTest, MarkProcessedIdempotentAndTolerant) {
  AlertLog log;
  log.append(make_alert("a"), kTimeZero);
  log.mark_processed("a", kTimeZero);
  log.mark_processed("a", kTimeZero);  // idempotent
  log.mark_processed("ghost", kTimeZero);  // unknown id: no-op
  EXPECT_EQ(log.stats().get("processed"), 1);
}

TEST(AlertLogTest, UnprocessedPreservesArrivalOrder) {
  AlertLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(make_alert("id-" + std::to_string(i)), kTimeZero);
  }
  log.mark_processed("id-2", kTimeZero);
  const auto pending = log.unprocessed();
  ASSERT_EQ(pending.size(), 4u);
  EXPECT_EQ(pending[0].id, "id-0");
  EXPECT_EQ(pending[3].id, "id-4");
}

TEST(AlertLogTest, WriteLatencyConfigurable) {
  AlertLog log(millis(300));
  EXPECT_EQ(log.write_latency(), millis(300));
}

TEST(AlertLogTest, RestartScanOrderUnderInterleavedAppendAndMark) {
  // The restart recovery scan must replay survivors in arrival order
  // no matter how appends and marks interleaved before the crash.
  AlertLog log;
  log.append(make_alert("a"), kTimeZero);
  log.append(make_alert("b"), kTimeZero + seconds(1));
  log.mark_processed("a", kTimeZero + seconds(2));
  log.append(make_alert("c"), kTimeZero + seconds(3));
  log.mark_processed("c", kTimeZero + seconds(4));
  log.append(make_alert("d"), kTimeZero + seconds(5));
  log.append(make_alert("e"), kTimeZero + seconds(6));
  log.mark_processed("d", kTimeZero + seconds(7));

  const auto pending = log.unprocessed();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, "b");
  EXPECT_EQ(pending[1].id, "e");
}

TEST(AlertLogTest, ResendStormIsSuppressedToOneRecord) {
  // At-least-once transport can hammer the MAB with the same alert;
  // the log is the dedup point and must keep exactly one record.
  AlertLog log;
  EXPECT_TRUE(log.append(make_alert("storm"), kTimeZero));
  for (int i = 1; i <= 50; ++i) {
    EXPECT_FALSE(log.append(make_alert("storm"), kTimeZero + seconds(i)));
  }
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.stats().get("duplicate_appends"), 50);
  ASSERT_EQ(log.unprocessed().size(), 1u);

  // Resends arriving after processing must not resurrect the record.
  log.mark_processed("storm", kTimeZero + minutes(1));
  EXPECT_FALSE(log.append(make_alert("storm"), kTimeZero + minutes(2)));
  EXPECT_TRUE(log.processed("storm"));
  EXPECT_TRUE(log.unprocessed().empty());
}

TEST(AlertLogTest, MarkUnknownIdLeavesLogIntact) {
  AlertLog log;
  log.mark_processed("ghost", kTimeZero);  // before any append
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.stats().get("processed"), 0);

  // The id later arriving for real starts unprocessed: the stray mark
  // left no tombstone behind.
  EXPECT_TRUE(log.append(make_alert("ghost"), kTimeZero + seconds(1)));
  EXPECT_FALSE(log.processed("ghost"));
  ASSERT_EQ(log.unprocessed().size(), 1u);
}

TEST(AlertLogTest, PowerLossTearsOnlyUnsyncedAppends) {
  // Only appends still inside their synchronous-write window can be
  // torn — exactly the records whose ack has not gone out yet.
  AlertLog log;  // 250 ms write latency
  Rng rng(7);
  log.append(make_alert("old"), kTimeZero);
  log.append(make_alert("synced"), kTimeZero + seconds(5));
  log.append(make_alert("fresh"), kTimeZero + seconds(10));
  const auto torn =
      log.power_loss(kTimeZero + seconds(10) + millis(100), rng, 1.0);
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0], "fresh");
  EXPECT_FALSE(log.contains("fresh"));
  EXPECT_TRUE(log.contains("old"));
  EXPECT_TRUE(log.contains("synced"));
  EXPECT_EQ(log.stats().get("torn_appends"), 1);
}

TEST(AlertLogTest, PowerLossSparesProcessedRecords) {
  // A processed record inside the window has long completed its write;
  // power loss cannot take it back.
  AlertLog log;
  Rng rng(7);
  log.append(make_alert("done"), kTimeZero + seconds(10));
  log.mark_processed("done", kTimeZero + seconds(10) + millis(50));
  const auto torn =
      log.power_loss(kTimeZero + seconds(10) + millis(100), rng, 1.0);
  EXPECT_TRUE(torn.empty());
  EXPECT_TRUE(log.contains("done"));

  // And zero probability tears nothing even in the window.
  log.append(make_alert("lucky"), kTimeZero + seconds(20));
  EXPECT_TRUE(log.power_loss(kTimeZero + seconds(20), rng, 0.0).empty());
  EXPECT_TRUE(log.contains("lucky"));
}

TEST(AlertLogTest, PowerLossTearingNothingKeepsRecordsIntact) {
  // A cut that tears nothing must leave every record as it was, so a
  // later cut that does tear cannot take the earlier records with it.
  AlertLog log;
  Rng rng(7);
  log.append(make_alert("a"), kTimeZero);
  log.append(make_alert("b"), kTimeZero + seconds(1));
  EXPECT_TRUE(log.power_loss(kTimeZero + seconds(5), rng, 1.0).empty());

  log.append(make_alert("fresh"), kTimeZero + seconds(10));
  const auto torn =
      log.power_loss(kTimeZero + seconds(10) + millis(100), rng, 1.0);
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0], "fresh");
  EXPECT_TRUE(log.contains("a"));
  EXPECT_TRUE(log.contains("b"));
  const auto pending = log.unprocessed();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, "a");
  EXPECT_EQ(pending[0].subject, "s");
  EXPECT_EQ(pending[1].id, "b");
  EXPECT_EQ(pending[1].subject, "s");
}

TEST(AlertLogTest, PowerLossRebuildsIndexConsistently) {
  // Tearing a middle record must leave the survivors addressable and
  // the torn id free for a clean re-append by the failover resend.
  AlertLog log;
  Rng rng(7);
  log.append(make_alert("a"), kTimeZero);
  log.append(make_alert("mid"), kTimeZero + seconds(10));
  log.append(make_alert("z"), kTimeZero + seconds(10) + millis(50));
  // Tear both in-window records ("mid", "z").
  const auto torn =
      log.power_loss(kTimeZero + seconds(10) + millis(100), rng, 1.0);
  ASSERT_EQ(torn.size(), 2u);
  EXPECT_EQ(log.size(), 1u);

  log.mark_processed("a", kTimeZero + seconds(20));
  EXPECT_TRUE(log.processed("a"));
  EXPECT_TRUE(log.append(make_alert("mid"), kTimeZero + seconds(30)));
  ASSERT_EQ(log.unprocessed().size(), 1u);
  EXPECT_EQ(log.unprocessed()[0].id, "mid");
}

// ---------------------------------------------------------------------------
// Profiles and subscriptions
// ---------------------------------------------------------------------------

TEST(UserProfileTest, ModeRegistry) {
  UserProfile profile("alice");
  EXPECT_TRUE(profile.define_mode(DeliveryMode::sample_urgent_mode()).ok());
  EXPECT_NE(profile.mode("Urgent"), nullptr);
  EXPECT_EQ(profile.mode("nope"), nullptr);
  EXPECT_FALSE(profile.define_mode(DeliveryMode("")).ok());
  EXPECT_FALSE(profile.define_mode(DeliveryMode("empty")).ok());
  EXPECT_EQ(profile.mode_names().size(), 1u);
}

TEST(SubscriptionRegistryTest, SubscribeAndQuery) {
  SubscriptionRegistry reg;
  ASSERT_TRUE(reg.subscribe("Investment", "alice", "Urgent").ok());
  ASSERT_TRUE(reg.subscribe("Investment", "bob", "Casual").ok());
  ASSERT_TRUE(reg.subscribe("News", "alice", "Casual").ok());
  const auto subs = reg.for_category("Investment");
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].user, "alice");
  EXPECT_EQ(subs[1].mode_name, "Casual");
  EXPECT_EQ(reg.categories().size(), 2u);
}

TEST(SubscriptionRegistryTest, ResubscribeUpdatesMode) {
  SubscriptionRegistry reg;
  reg.subscribe("News", "alice", "Casual");
  reg.subscribe("News", "alice", "Urgent");
  const auto subs = reg.for_category("News");
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].mode_name, "Urgent");
}

TEST(SubscriptionRegistryTest, UnsubscribeRemoves) {
  SubscriptionRegistry reg;
  reg.subscribe("News", "alice", "Casual");
  reg.unsubscribe("News", "alice");
  EXPECT_TRUE(reg.for_category("News").empty());
}

TEST(SubscriptionRegistryTest, RejectsEmptyFields) {
  SubscriptionRegistry reg;
  EXPECT_FALSE(reg.subscribe("", "alice", "m").ok());
  EXPECT_FALSE(reg.subscribe("c", "", "m").ok());
  EXPECT_FALSE(reg.subscribe("c", "alice", "").ok());
}


TEST(ClassifierTest, BodyKeywordExtraction) {
  AlertClassifier c;
  c.add_rule(SourceRule{"bodysrc", KeywordLocation::kBody,
                        {"flood", "fire"}, ""});
  Alert a;
  a.source = "bodysrc";
  a.body = "URGENT: possible FLOOD in sector 4";
  const auto keyword = c.classify(a);
  ASSERT_TRUE(keyword.has_value());
  EXPECT_EQ(*keyword, "flood");
  a.body = "nothing interesting";
  EXPECT_FALSE(c.classify(a).has_value());
}

TEST(ClassifierTest, FirstMatchingKeywordWins) {
  AlertClassifier c;
  c.add_rule(SourceRule{"s", KeywordLocation::kSubject,
                        {"alpha", "beta"}, ""});
  Alert a;
  a.source = "s";
  a.subject = "beta before alpha in keyword-list order";
  // Order of the rule's keyword list decides, not position in text.
  EXPECT_EQ(*c.classify(a), "alpha");
}

}  // namespace
}  // namespace simba::core
