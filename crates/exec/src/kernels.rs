//! Vectorized mid-pipeline kernels: batch filter and projection.
//!
//! These back the executor's `Filter` and `Project` nodes.  Both take the
//! input [`Batch`] by value, do their work morsel by morsel over typed
//! columns (filter) or in one row-assembly pass (project), and hand back a
//! row-major [`Batch`].  CPU charges stay in the executor (they are
//! input-size-based).

use rqo_expr::columnar::{select, Candidates};
use rqo_expr::Expr;
use rqo_storage::{Schema, Value};

use crate::batch::Batch;
use crate::columnar::{column_refs, columnarize, SelVec};
use crate::morsel::{run_morsels, ExecOptions};

/// Vectorized filter: evaluates the bound predicate over typed column
/// vectors (transposed once per batch, only the referenced columns) and
/// materializes each morsel's surviving rows from its selection vector.
/// Returns `None` only when the query's token fired mid-batch.
pub fn filter_batch(batch: Batch, bound: &Expr, opts: &ExecOptions) -> Option<Batch> {
    let ords: Vec<usize> = bound
        .referenced_columns()
        .iter()
        .map(|c| batch.schema.expect_index(c))
        .collect();
    let cols = columnarize(&batch.rows, &batch.schema, &ords);
    let refs = column_refs(&cols);
    let n = batch.rows.len();
    let parts = run_morsels(opts, n, |morsel| -> Vec<Vec<Value>> {
        let sel = SelVec::new(select(bound, &refs, Candidates::Range(morsel)), n);
        sel.ids()
            .iter()
            .map(|&i| batch.rows[i as usize].clone())
            .collect()
    })?;
    Some(Batch::from_parts(batch.schema.clone(), parts))
}

/// Morselized projection kernel.
///
/// The output is row-major (the executor's unit of exchange), so each
/// output row is assembled in one pass while its buffer is cache-hot; a
/// per-column pass would stride one `Value` write across every row
/// allocation per column and measurably lose (the kernels bench keeps a
/// `project` entry pinning that this kernel does not regress the row
/// baseline).  `schema` is the projected output schema
/// (`batch.schema.project(..)`), computed by the caller alongside the
/// ordinals.  Returns `None` only when the query's token fired mid-batch.
pub fn project_batch(
    batch: Batch,
    ordinals: &[usize],
    schema: Schema,
    opts: &ExecOptions,
) -> Option<Batch> {
    let parts = run_morsels(opts, batch.rows.len(), |morsel| -> Vec<Vec<Value>> {
        batch.rows[morsel]
            .iter()
            .map(|row| ordinals.iter().map(|&i| row[i].clone()).collect())
            .collect()
    })?;
    Some(Batch::from_parts(schema, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::DataType;

    /// Mixed-type batch with NULLs sprinkled in.
    fn batch() -> Batch {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 * 0.5),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                ]
            })
            .collect();
        Batch::new(schema, rows)
    }

    fn row_filter(b: &Batch, bound: &Expr) -> Vec<Vec<Value>> {
        b.rows
            .iter()
            .filter(|row| rqo_expr::eval_bool(bound, row))
            .cloned()
            .collect()
    }

    #[test]
    fn filter_matches_row_path() {
        let b = batch();
        let preds = [
            Expr::col("a").ge(Expr::lit(100i64)),
            Expr::col("a")
                .lt(Expr::lit(50i64))
                .and(Expr::col("c").eq(Expr::lit("even"))),
            Expr::col("b").ge(Expr::lit(1e9)),      // none selected
            Expr::col("a").ge(Expr::lit(i64::MIN)), // NULLs still dropped
        ];
        for pred in &preds {
            let bound = pred.bind(&b.schema).unwrap();
            let expect = row_filter(&b, &bound);
            let serial = filter_batch(b.clone(), &bound, &ExecOptions::default()).unwrap();
            assert_eq!(serial.rows, expect, "pred={pred:?}");
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(32);
                let par = filter_batch(b.clone(), &bound, &opts).unwrap();
                assert_eq!(par.rows, expect, "pred={pred:?} threads={threads}");
            }
        }
    }

    #[test]
    fn filter_empty_batch() {
        let b = Batch::new(batch().schema, Vec::new());
        let bound = Expr::col("a").ge(Expr::lit(0i64)).bind(&b.schema).unwrap();
        let out = filter_batch(b, &bound, &ExecOptions::default()).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn project_matches_row_path() {
        let b = batch();
        let ordinals = [2usize, 0];
        let schema = b.schema.project(&ordinals);
        let expect: Vec<Vec<Value>> = b
            .rows
            .iter()
            .map(|row| ordinals.iter().map(|&i| row[i].clone()).collect())
            .collect();
        let serial = project_batch(
            b.clone(),
            &ordinals,
            schema.clone(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(serial.rows, expect);
        assert_eq!(serial.schema.names(), vec!["c", "a"]);
        for threads in [2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(32);
            let par = project_batch(b.clone(), &ordinals, schema.clone(), &opts).unwrap();
            assert_eq!(par.rows, expect, "threads={threads}");
        }
    }
}
