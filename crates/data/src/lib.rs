//! # adc-data
//!
//! Typed relational data substrate for approximate denial constraint (ADC) mining.
//!
//! The VLDB 2020 paper *"Approximate Denial Constraints"* (Livshits et al.)
//! operates over single-relation databases with typed attributes. This crate
//! provides everything that layer needs:
//!
//! * [`Value`] — a dynamically typed cell value (integer, float, string, null),
//!   with total ordering suitable for comparison predicates.
//! * [`Schema`] / [`Attribute`] / [`AttributeType`] — relation schemas.
//! * [`Relation`] — a column-oriented, dictionary-encoded table with cheap
//!   row projection, sampling, and per-column statistics.
//! * [`pli::PositionListIndex`] — position list indexes (PLIs) as used by the
//!   DCFinder-style evidence set builder.
//! * [`bitset::FixedBitSet`] — a dense fixed-width bitset shared by the
//!   predicate-space and hitting-set layers.
//! * [`fx`] — a small, fast, non-cryptographic hasher (FxHash) plus map/set
//!   aliases, used in hot paths instead of SipHash.
//! * [`csv`] — a dependency-free CSV reader with type inference.
//! * [`sample`] — uniform tuple sampling used by the ADCMiner sampler.
//!
//! The crate has no knowledge of predicates or constraints; those live in
//! `adc-predicates` and above.
//!
//! ```
//! use adc_data::{AttributeType, Relation, Schema, Value};
//!
//! let schema = Schema::of(&[
//!     ("Name", AttributeType::Text),
//!     ("State", AttributeType::Text),
//!     ("Income", AttributeType::Integer),
//! ]);
//! let mut b = Relation::builder(schema);
//! b.push_row(vec!["Alice".into(), "NY".into(), Value::Int(28_000)]).unwrap();
//! b.push_row(vec!["Mark".into(), "NY".into(), Value::Int(42_000)]).unwrap();
//! let relation = b.build();
//! assert_eq!((relation.len(), relation.arity()), (2, 3));
//!
//! // Narrow to the attributes a constraint set mentions (keeps the
//! // downstream predicate space small).
//! let slim = relation.project_columns(&["State", "Income"]).unwrap();
//! assert_eq!(slim.arity(), 2);
//! assert_eq!(slim.value(1, 1), Value::Int(42_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod column;
pub mod csv;
pub mod error;
pub mod fx;
pub mod pli;
pub mod relation;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod value;

pub use bitset::FixedBitSet;
pub use column::Column;
pub use error::DataError;
pub use relation::{Relation, RelationBuilder};
pub use schema::{Attribute, AttributeType, Schema};
pub use stats::{value_key, SharedPair, SharedValues, ValueKey};
pub use value::Value;
